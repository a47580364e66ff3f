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
entry.  These pieces are built in time linear in the number of blocks
and written into a flat successor list over positions, whose cycles are
then followed.  An orbit is listed by the positions of its entries and
no crossing is named; the walk is linear in the weights rather than in
the crossing count.
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


def trace_components(mc: MultiCurve) -> int:
    """Number of closed components of the coherently smoothed multicurve.

    Each orbit of the reconnection map is one component.  A copy of a
    class with boundary count 0 meets no crossing: it survives smoothing
    untouched and counts one component.
    """
    untouched = sum(
        w
        for family, weights in (("l", mc.longitudes), ("m", mc.meridians))
        for x, w in enumerate(weights)
        if not mc.boundary_count(family, x)
    )
    return len(trace_orbits(mc)) + untouched
