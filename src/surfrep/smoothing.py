"""Smoothing a weighted multicurve and counting its components.

Every crossing between a longitude copy and a meridian copy is resolved
in the way compatible with the strand orientations, turning the weighted
multicurve into a disjoint union of embedded closed curves.  The number
of resulting components is the number of orbits of the reconnection map.

A crossing is identified by (j, c, i, d): copy c of longitude class l_j
meets copy d of meridian class m_i.  Copies are numbered from 1 and sit
in parallel, so along any single copy the crossings with another class
appear consecutively in copy order.  With a_j copies of l_j and b_i of
m_i, the crossings of l_j with m_i form the block 1..a_j x 1..b_i.

A smoothed curve arriving at a crossing along a longitude leaves along
the meridian to the next crossing on that meridian copy, then along the
longitude to the next crossing on that longitude copy.  Write G for
this return map on crossings (longitude step after meridian step); G is
a bijection, and its orbits are the smoothed components that meet any
crossing.  Inside a block, when c < a_j and d < b_i, the meridian step
moves to copy c+1 of the same block and the longitude step to copy d+1,
so G is the diagonal step (c, d) -> (c+1, d+1).  Hence a crossing with
c > 1 and d > 1 has the unique preimage (c-1, d-1), and following an
orbit backwards along the diagonal always reaches an *entry*, a
crossing with c = 1 or d = 1.  Every orbit therefore contains an entry,
and ``trace_orbits`` walks the first-return map of G on entries: a run
of diagonal steps taken at once, then one step that wraps to the next
class with copies.  A block holds a_j + b_i - 1 entries, one on each
diagonal s = d - c in [1 - a_j, b_i - 1], and they are numbered by s at
consecutive positions.  Where the run from an entry ends depends only on
how s compares with b_i - a_j, so on each block the first return is a
translation on at most three intervals of s, one of them a single
entry.  These pieces are built in time linear in the number of blocks.

The cycles of the pieces are counted in one of two ways.  The walk,
``trace_orbits``, writes them into a flat successor list over positions
and follows its cycles; it lists each orbit by the positions of its
entries, names no crossing, and is linear in the weights.  The
induction, ``_count_orbits``, only counts, in time polynomial in the
number of pieces and in log n, as Rauzy induction and the orbit
counting of Agol, Hass & Thurston (Trans. AMS 2006) do; on the torus it
is Euclid's algorithm.  It works on the n positions [0, n) and keeps
only the pieces' lengths and their two orders, by domain and by image.
Call top the piece whose domain ends at n, bottom the piece whose image
ends at n, and L the lesser of their lengths.  The last L positions,
the cut, lie in the top's domain and in the bottom's image.  If top and
bottom are one piece, it maps [n - L, n) onto itself by a translation,
so it is the identity there, and the cut is L cycles of one position
each.  Otherwise the top's image misses the bottom's, so each position
of the cut leaves it in one step: every cycle meets [0, n - L), and
the first return to [0, n - L) has as many cycles as the map had.  That
return is again a piecewise translation: a position of the bottom's
domain that lands in the cut goes on by the top, so the bottom's piece
and the top's compose.  If the top is the longer, it loses its last L
positions and the bottom's image moves to just past the top's; if the
bottom is, it loses its last L and the top's domain moves to just past
the bottom's; if both are as long, the top is gone and the bottom takes
over its image.

When one piece outlasts everything past it, the same steps come round
again.  Let the top be longer than the tail T, the total length of the
pieces whose images lie past the top's image.  Each of them in turn,
from the last one back, is the bottom, is shorter than what is left of
the top, and moves to just past the top's shortened image; after all of
them they lie past it in the same order as before, the top is shorter
by T, and nothing else has changed.  So r whole rounds are one step,
the top's length less r * T, for the largest r that leaves the top
longer than nothing, r = (length - 1) // T; a round more would empty
the top at the last piece of the tail, where the lengths tie.  The
bottom's rounds against the pieces whose domains lie past its domain
are the same with domains and images exchanged.  Taking the rounds,
and then the run of last pieces that the winner still outlasts, in one
step is the acceleration of Zorich.  ``trace_components`` walks a curve
with few entries per piece and counts the others by induction (its
docstring has the rule).
"""

from __future__ import annotations

from surfrep.surface import MultiCurve, _crossed

__all__ = ["trace_components", "trace_orbits"]

#: positions lo .. hi-1 go to to .. to + hi - lo - 1 under the first return
Piece = tuple[int, int, int]


def _next_with_copies(
    classes: tuple[int, ...], weights: tuple[int, ...]
) -> dict[int, int]:
    """Cyclic successor among ``classes`` that carry at least one copy."""
    live = [x for x in classes if weights[x]]
    return {x: live[(t + 1) % len(live)] for t, x in enumerate(live)}


def _return_pieces(mc: MultiCurve) -> tuple[list[tuple[int, int]], list[int], list[Piece]]:
    """The first-return map on entries as translation pieces.

    Returns the blocks (j, i) in walking order, the position of each
    block's first entry (one more item, the entry count, closes the
    list), and the pieces.  The entries of block (l_j, m_i) sit at
    consecutive positions in the order of their diagonal s = d - c,
    from 1 - a_j up to b_i - 1.  An entry runs t = min(a_j - c, b_i - d)
    diagonal steps, to (c + t, d + t) = (a_j, a_j + s) or (b_i - s, b_i),
    and then leaves the block.  So the first return is a translation on
    each of at most three intervals of s:

    * s in [1 - a_j, b_i - a_j - 1]: the longitude copy ends first and
      the meridian step wraps to block (j', i), j' = next_long[i][j], at
      s + a_j;
    * s = b_i - a_j: both end together, to block (j', next_mer[j'][i])
      at s = 0;
    * s in [b_i - a_j + 1, b_i - 1]: the meridian copy ends first and the
      longitude step wraps to block (j, next_mer[j][i]) at s - b_i.

    The middle piece always has one entry; the others are empty when
    b_i = 1 or a_j = 1.  The cost is linear in the number of blocks.
    """
    a, b = mc.longitudes, mc.meridians
    k = len(b)
    # along m_i after l_j, and along l_j after m_i
    next_long = [_next_with_copies(_crossed(k, "m", i), a) for i in range(k)]
    next_mer = [_next_with_copies(_crossed(k, "l", j), b) for j in range(k)]
    blocks = [(j, i) for j in range(k) if a[j] for i in next_mer[j]]
    base: dict[tuple[int, int], int] = {}
    offsets = [0]
    for j, i in blocks:
        base[j, i] = offsets[-1]
        offsets.append(offsets[-1] + a[j] + b[i] - 1)
    pieces: list[Piece] = []
    for j, i in blocks:
        lo, aj, bi = base[j, i], a[j], b[i]
        jn = next_long[i][j]
        pieces.append((lo, lo + bi - 1, base[jn, i] + a[jn]))
        pieces.append((lo + bi - 1, lo + bi, base[jn, next_mer[jn][i]] + a[jn] - 1))
        pieces.append((lo + bi, lo + aj + bi - 1, base[j, next_mer[j][i]]))
    return blocks, offsets, pieces


def trace_orbits(mc: MultiCurve) -> list[list[int]]:
    """Orbits of the smoothing reconnection map, one per closed walk.

    Each orbit is listed by the positions of its entries, the crossings
    with c = 1 or d = 1, in walking order; a position indexes the flat
    successor list laid out by :func:`_return_pieces`, and no crossing
    is named.  Every orbit of the return map G meets an entry (module
    docstring), so the orbits of G correspond one to one to the orbits
    of its first return to the entries.  The pieces are written out
    into the successor list, and one scan over the positions 0 .. n-1
    follows each cycle from its least position until it meets a position
    already seen; each step marks a new position, so every walk ends
    within n steps.  Pieces that do not form a bijection leave some walk
    that ends on a position other than its start, and that raises
    RuntimeError.  Copies that meet no crossings at all are handled by
    trace_components.
    """
    _, offsets, pieces = _return_pieces(mc)
    n = offsets[-1]
    succ = [0] * n
    for lo, hi, to in pieces:
        succ[lo:hi] = range(to, to + hi - lo)
    seen = [False] * n
    orbits: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = []
        p = start
        while not seen[p]:
            seen[p] = True
            orbit.append(p)
            p = succ[p]
        if p != start:
            raise RuntimeError(f"first-return cycle from position {start} does not close")
        orbits.append(orbit)
    return orbits


def _tiles(order: list[int], starts: list[int], length: list[int], n: int) -> bool:
    """Whether the intervals [starts[p], starts[p] + length[p]), taken in
    ``order``, tile the positions 0 .. n-1."""
    end = 0
    for p in order:
        if starts[p] != end:
            return False
        end += length[p]
    return end == n


def _outlast(winner: int, order: list[int], length: list[int]) -> None:
    """One induction step in which ``winner`` is longer than the last piece
    of ``order``: the top against the bottoms, with ``order`` the pieces
    by image, or the bottom against the tops, with ``order`` by domain.

    The pieces past the winner in ``order`` are composed with it from
    the last one back, each landing just past the winner, for as long as
    the winner stays longer than the piece it meets: first whole rounds
    of all of them at once, then the longest run from the end whose total
    is less than what is left of the winner.
    """
    k = order.index(winner)
    left = length[winner]
    tail = sum(map(length.__getitem__, order[k + 1:]))
    if left > tail:
        left -= (left - 1) // tail * tail
    j, cut = len(order), 0
    while cut + length[order[j - 1]] < left:
        j -= 1
        cut += length[order[j]]
    length[winner] = left - cut
    order[k + 1:] = order[j:] + order[k + 1:j]


def _induce(top: list[int], bottom: list[int], length: list[int]) -> int:
    """One step of the induction on the pieces by domain (``top``) and by
    image (``bottom``); returns the cycles it closes."""
    t, b = top[-1], bottom[-1]
    if t == b:
        top.pop()
        bottom.pop()
        return length[t]
    if length[t] == length[b]:
        # the top's domain is the cut, and the bottom takes over its image
        top.pop()
        bottom.pop()
        bottom[bottom.index(t)] = b
    elif length[t] > length[b]:
        _outlast(t, bottom, length)
    else:
        _outlast(b, top, length)
    return 0


def _count_orbits(pieces: list[Piece], n: int) -> int:
    """Number of cycles of the pieces on the positions 0 .. n-1, by induction.

    The argument is in the module docstring.  The pieces are first
    checked to tile 0 .. n-1 both as domains and as images, so that they
    form a bijection; if they do not, this raises RuntimeError, as the
    walk does on a cycle that does not close.  The induction then keeps
    only each piece's length and the two orders of the pieces, by domain
    and by image, so its memory is linear in the pieces.  Each step
    closes the cycles of a fixed piece, or composes the bottom with the
    top and drops a piece, or takes the longer piece's whole rounds and
    run; it costs O(pieces), and on random chains with weights up to
    10**12 the steps stayed below pieces * log2(n).
    """
    live = [piece for piece in pieces if piece[0] < piece[1]]
    length = [hi - lo for lo, hi, _ in live]
    los = [lo for lo, _, _ in live]
    tos = [to for _, _, to in live]
    top = sorted(range(len(live)), key=los.__getitem__)
    bottom = sorted(range(len(live)), key=tos.__getitem__)
    if not (_tiles(top, los, length, n) and _tiles(bottom, tos, length, n)):
        raise RuntimeError(f"the pieces do not tile the positions 0 .. {n - 1} twice")
    cycles = 0
    while top:
        cycles += _induce(top, bottom, length)
    return cycles


#: the walk counts a curve whose 2k class weights average at most this,
#: about 43 entries per piece; the induction counts the others
_WALK_MEAN_WEIGHT = 64


def trace_components(mc: MultiCurve) -> int:
    """Number of closed components of the coherently smoothed multicurve.

    Each orbit of the reconnection map is one component.  A copy of a
    class with boundary count 0 meets no crossing: it survives smoothing
    untouched and counts one component.

    The orbits are counted by the walk, ``trace_orbits``, when the 2k
    class weights average at most ``_WALK_MEAN_WEIGHT`` = 64, and by the
    induction, ``_count_orbits``, otherwise; the rule reads the weights
    alone, so each path builds its pieces once.  A curve has about 2/3
    of its mean weight in entries per piece, and the walk pays one step
    per entry where an induction step costs several walk steps but their
    number grows with log n.  Measured on random curves of k = 1, 2, 3,
    5, 9 and 17 classes per family, weights uniform around the mean
    (best of 5 in process, 2-core Xeon VM, Python 3.11), the walk took
    0.5 to 0.8 times the induction's time at mean weight 8 to 24, the two
    broke even between mean weights 45 and 64, and the induction was 1.6
    to 2.1 times as fast at mean weight 128.  At weights near 10**9 the
    walk cannot run at all, and the induction counts a genus-16 chain in
    about 2 ms.
    """
    untouched = sum(
        w
        for family, weights in (("l", mc.longitudes), ("m", mc.meridians))
        for x, w in enumerate(weights)
        if not mc.boundary_count(family, x)
    )
    if sum(mc.longitudes) + sum(mc.meridians) <= _WALK_MEAN_WEIGHT * 2 * len(mc.meridians):
        return len(trace_orbits(mc)) + untouched
    _, offsets, pieces = _return_pieces(mc)
    return _count_orbits(pieces, offsets[-1]) + untouched
