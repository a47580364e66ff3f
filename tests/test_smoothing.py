"""Component counts for coherently smoothed multicurves."""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest
from hypothesis import assume, given, strategies as st

from oracles import adjacent, entry_walk_orbits, smoothing_state_orbits
from surfrep import smoothing
from surfrep.families import exact_knot, torus_knot
from surfrep.smoothing import trace_components, trace_orbits
from surfrep.surface import MultiCurve


def _total_crossings(mc: MultiCurve) -> int:
    k = len(mc.meridians)
    return sum(mc.longitudes[j] * mc.boundary_count("l", j) for j in range(k))


def _entry_names(mc: MultiCurve) -> list[tuple[int, int, int, int]]:
    """The crossing (j, c, i, d) at each entry position of the layout of
    ``_return_pieces``: per block, in the order of the diagonal s = d - c,
    (j, c, i, 1) for c = a_j down to 2, then (j, 1, i, d) for d = 1 .. b_i."""
    blocks, offsets, _ = smoothing._return_pieces(mc)
    names = []
    for (j, i), lo in zip(blocks, offsets):
        assert len(names) == lo
        names += [(j, c, i, 1) for c in range(mc.longitudes[j], 1, -1)]
        names += [(j, 1, i, d) for d in range(1, mc.meridians[i] + 1)]
    assert len(names) == offsets[-1]
    return names


def _named_orbits(mc: MultiCurve) -> list[list[tuple[int, int, int, int]]]:
    """The orbits of ``trace_orbits``, each position replaced by its crossing."""
    names = _entry_names(mc)
    return [[names[p] for p in orbit] for orbit in trace_orbits(mc)]


def _canonical(orbits) -> list[list]:
    """Each cycle rotated to start at its least item, and the cycles sorted."""
    out = []
    for orbit in orbits:
        t = orbit.index(min(orbit))
        out.append(orbit[t:] + orbit[:t])
    return sorted(out)


def _diagonal_run_total(mc: MultiCurve, orbits) -> int:
    """Crossings covered by the diagonal runs that start at the named entries."""
    longs, mers = mc.longitudes, mc.meridians
    return sum(min(longs[j] - c, mers[i] - d) + 1 for orbit in orbits for j, c, i, d in orbit)


#-- Torus --#

def test_torus_components_are_gcd():
    """q meridian copies against p longitude copies close into gcd(p, q) curves."""
    for p in range(1, 13):
        for q in range(1, 13):
            mc = MultiCurve((q,), (p,))
            assert trace_components(mc) == math.gcd(p, q)


def test_torus_zero_weight_copies_are_untouched():
    assert trace_components(MultiCurve((4,), (0,))) == 4
    assert trace_components(MultiCurve((0,), (3,))) == 3


#-- Genus-1 chain --#

def test_chain1_components_merge_to_gcd():
    """Both meridians cross both longitudes, so only the total weights matter."""
    rng = random.Random(7)
    for _ in range(200):
        a = (rng.randrange(0, 7), rng.randrange(0, 7))
        b = (rng.randrange(0, 7), rng.randrange(0, 7))
        if sum(a) + sum(b) == 0:
            continue
        mc = MultiCurve(a, b)
        if sum(a) > 0 and sum(b) > 0:
            assert trace_components(mc) == math.gcd(sum(a), sum(b))
        else:
            assert trace_components(mc) == sum(a) + sum(b)


#-- Higher genus --#

def test_knot_weightings_trace_to_one_component():
    """The weightings used by exact_knot close up into a single curve."""
    for g in (1, 2, 3):
        for n in range(2, 9):
            c, f = -(-n // 2), n // 2
            a = (n + 1, n) + (c,) * (g - 1)
            b = (c, f) + (c,) * (g - 1)
            mc = MultiCurve(a, b)
            assert trace_components(mc) == 1


def test_small_chain2_walk_detail():
    """Weights (3,2,1)/(1,1,1): 12 crossings, one closed walk.

    The full walk visits 24 states.  Every crossing has c = 1, so every
    crossing is an entry and the entry walk lists all 12, each the start
    of a diagonal run of length one.
    """
    mc = MultiCurve((3, 2, 1), (1, 1, 1))
    assert _total_crossings(mc) == 12
    full = smoothing_state_orbits("chain", mc.meridians, mc.longitudes)
    assert [len(orbit) for orbit in full] == [24]
    orbits = _named_orbits(mc)
    assert len(orbits) == 1
    assert len(orbits[0]) == 12
    assert all(c == 1 for _, c, _, _ in orbits[0])
    assert _diagonal_run_total(mc, orbits) == 12


def test_untouched_copies_counted():
    mc = MultiCurve((0, 0), (3, 2))
    assert trace_components(mc) == 5
    # l_1 on a genus-3 chain meets only m_0 and m_1; zero those out and
    # its copies survive while the rest still close up.
    mc2 = MultiCurve((0, 0, 2, 2), (0, 4, 1, 1))
    orbits = trace_orbits(mc2)
    assert trace_components(mc2) == len(orbits) + 4


#-- Structure of the walk --#

@given(
    g=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_orbits_partition_all_states(g: int, seed: int):
    """The full walk partitions all 2 x crossings states; the entry walk
    lists every position 0 .. n-1 exactly once, and so every entry of
    every block exactly once."""
    rng = random.Random(seed)
    k = g + 1
    a = tuple(rng.randrange(0, 6) for _ in range(k))
    b = tuple(rng.randrange(0, 6) for _ in range(k))
    if sum(a) + sum(b) == 0:
        a = (1,) + a[1:]
    mc = MultiCurve(a, b)
    full = smoothing_state_orbits("chain", mc.meridians, mc.longitudes)
    states = [s for orbit in full for s in orbit]
    assert len(states) == len(set(states)) == 2 * _total_crossings(mc)

    orbits = trace_orbits(mc)
    names = _entry_names(mc)
    assert sorted(p for orbit in orbits for p in orbit) == list(range(len(names)))
    entries = [names[p] for orbit in orbits for p in orbit]
    longs, mers = mc.longitudes, mc.meridians
    for j, c, i, d in entries:
        assert adjacent(k, j, i) == 1
        assert 1 <= c <= longs[j] and 1 <= d <= mers[i]
        assert c == 1 or d == 1
    blocks = [(j, i) for j in range(k) for i in range(k)
              if adjacent(k, j, i) and longs[j] and mers[i]]
    assert len(entries) == len(set(entries)) == sum(longs[j] + mers[i] - 1 for j, i in blocks)
    assert trace_components(mc) >= 1
    assert trace_orbits(mc) == orbits  # deterministic


@given(
    g=st.integers(min_value=0, max_value=4),
    weights=st.lists(st.integers(min_value=0, max_value=9), min_size=10, max_size=10),
)
def test_orbits_match_the_full_walk(g: int, weights: list[int]):
    """Differential check against the state-by-state walk of tests/oracles.py.

    g = 0 stands for the torus.  The entry walk finds as many orbits as
    the full walk, lists no entry twice, and the diagonal runs starting
    at its entries cover every crossing exactly once.
    """
    kind, k = ("torus", 1) if g == 0 else ("chain", g + 1)
    meridians, longitudes = tuple(weights[:k]), tuple(weights[5:5 + k])
    assume(any(meridians + longitudes))
    mc = MultiCurve(meridians, longitudes)
    orbits = _named_orbits(mc)
    assert len(orbits) == len(smoothing_state_orbits(kind, meridians, longitudes))
    entries = [x for orbit in orbits for x in orbit]
    assert len(entries) == len(set(entries))
    assert _diagonal_run_total(mc, orbits) == _total_crossings(mc)


@pytest.mark.parametrize("g", range(7))
def test_orbits_equal_the_entry_walk(g: int):
    """The piece walk lists exactly the orbits of the tuple-by-tuple entry
    walk of tests/oracles.py, as cycles of named entries: each orbit is
    rotated to start at its least crossing and the orbits are sorted, so
    every successor is checked but not the order of the starts.

    g = 0 stands for the torus.  Weights run from 0 to a few hundred, and
    some classes are zeroed so that the next class with copies skips.
    """
    kind, k = ("torus", 1) if g == 0 else ("chain", g + 1)
    rng = random.Random(1000 + g)
    for trial in range(60):
        top = (2, 4, 12, 300)[trial % 4]
        meridians = tuple(0 if rng.random() < 0.2 else rng.randrange(1, top) for _ in range(k))
        longitudes = tuple(0 if rng.random() < 0.2 else rng.randrange(1, top) for _ in range(k))
        if not any(meridians + longitudes):
            continue
        mc = MultiCurve(meridians, longitudes)
        expected = entry_walk_orbits(kind, meridians, longitudes)
        assert _canonical(_named_orbits(mc)) == _canonical(expected)


def test_pieces_of_one_torus_block():
    """Five longitude copies against three meridian copies: entries s = -4 .. 2
    at positions 0 .. 6, and the three pieces s + 5, the single s = -2 -> 0,
    and s - 3."""
    blocks, offsets, pieces = smoothing._return_pieces(torus_knot(5, 3).curve)
    assert blocks == [(0, 0)]
    assert offsets == [0, 7]
    assert pieces == [(0, 2, 5), (2, 3, 4), (3, 7, 0)]


@pytest.mark.parametrize("g", range(7))
def test_pieces_tile_the_positions(g: int):
    """The pieces cover the positions 0 .. n-1 in order, each once: every
    piece starts where the one before it ends, none runs backwards, and
    the last ends at the entry count.  The walk's successor list alone
    would not notice two pieces that overlap, as the later one writes
    over the earlier.

    g = 0 stands for the torus; weights run from 0 to 9, zero about one
    time in three."""
    k = g + 1
    rng = random.Random(3700 + g)
    for _ in range(200):
        meridians = tuple(0 if rng.random() < 0.3 else rng.randint(1, 9) for _ in range(k))
        longitudes = tuple(0 if rng.random() < 0.3 else rng.randint(1, 9) for _ in range(k))
        if not any(meridians + longitudes):
            continue
        _, offsets, pieces = smoothing._return_pieces(MultiCurve(meridians, longitudes))
        end = 0
        for lo, hi, _ in pieces:
            assert lo == end <= hi
            end = hi
        assert end == offsets[-1]


def test_corrupted_pieces_do_not_close(monkeypatch):
    """Two entries sent to one position leave a cycle that never returns to
    its start; the walk raises instead of looping or dropping entries."""
    real = smoothing._return_pieces

    def corrupted(mc):
        blocks, offsets, pieces = real(mc)
        lo, hi, _ = pieces[1]
        pieces[1] = (lo, hi, pieces[4][2])  # the single entry of block 0 joins block 1's
        return blocks, offsets, pieces

    monkeypatch.setattr(smoothing, "_return_pieces", corrupted)
    for mc in (MultiCurve((3, 4, 5), (2, 6, 1)), MultiCurve((1, 1), (1, 1))):
        with pytest.raises(RuntimeError, match="does not close"):
            trace_orbits(mc)


def test_large_weights():
    """Weights far beyond the reach of a walk over every crossing."""
    assert trace_components(torus_knot(9973, 10007).curve) == 1
    assert trace_components(torus_knot(12000, 18000).curve) == 6000
    a, b = (1234, 2000), (3001, 2999)
    mc = MultiCurve(a, b)
    assert trace_components(mc) == math.gcd(sum(a), sum(b)) == 6


def test_walk_memory_is_linear_in_the_entries():
    """The successor list holds one slot per entry position and nothing
    more: ``exactly:1000,32`` has 67,936 positions, and the whole walk
    peaks near 56 bytes per position.  A slice that writes more items
    than it replaces grows the list with the piece offsets, hundreds of
    MiB here, and leaves every orbit as it was."""
    curve = exact_knot(1000, 32).curve
    n = smoothing._return_pieces(curve)[1][-1]
    assert n == 67_936
    tracemalloc.start()
    try:
        assert len(trace_orbits(curve)) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * n, f"peak {peak} bytes for {n} positions"


#-- Induction --#

def _induction_count(mc: MultiCurve) -> int:
    _, offsets, pieces = smoothing._return_pieces(mc)
    return smoothing._count_orbits(pieces, offsets[-1])


def _induction_steps(mc: MultiCurve, monkeypatch) -> int:
    """The steps ``_count_orbits`` takes on the pieces of ``mc``."""
    steps = []
    induce = smoothing._induce

    def counting(top, bottom, length):
        steps.append(None)
        return induce(top, bottom, length)

    with monkeypatch.context() as patch:
        patch.setattr(smoothing, "_induce", counting)
        _induction_count(mc)
    return len(steps)


def _walks(mc: MultiCurve) -> bool:
    """Whether ``trace_components`` walks ``mc`` rather than inducing."""
    k = len(mc.meridians)
    return sum(mc.meridians + mc.longitudes) <= smoothing._WALK_MEAN_WEIGHT * 2 * k


@pytest.mark.parametrize("g", range(7))
def test_induction_counts_the_orbits_of_the_walks(g: int):
    """The induction counts as many cycles as the piece walk lists, and as
    the tuple-by-tuple entry walk of tests/oracles.py, on curves on both
    sides of ``trace_components``'s rule; and as the state-by-state walk
    where the crossings are few.  g = 0 stands for the torus; about one
    weight in five is zero, so that the next class with copies skips."""
    kind, k = ("torus", 1) if g == 0 else ("chain", g + 1)
    rng = random.Random(4200 + g)
    sides = set()
    for trial in range(120):
        top = (3, 8, 40, 400)[trial % 4]
        meridians = tuple(0 if rng.random() < 0.2 else rng.randrange(1, top) for _ in range(k))
        longitudes = tuple(0 if rng.random() < 0.2 else rng.randrange(1, top) for _ in range(k))
        if not any(meridians + longitudes):
            continue
        mc = MultiCurve(meridians, longitudes)
        count = _induction_count(mc)
        assert count == len(trace_orbits(mc)), mc
        assert count == len(entry_walk_orbits(kind, meridians, longitudes)), mc
        if top <= 8:
            assert count == len(smoothing_state_orbits(kind, meridians, longitudes)), mc
        untouched = sum(w for family, weights in (("m", meridians), ("l", longitudes))
                        for x, w in enumerate(weights) if not mc.boundary_count(family, x))
        assert trace_components(mc) == count + untouched
        sides.add(_walks(mc))
    assert sides == {True, False}


def test_induction_counts_fixed_pieces_by_their_length():
    """Pieces that map positions onto themselves are cycles of one position
    each, however long: a piece of length 3 that moves nothing is 3 cycles.
    Swapping 0, 1 with 3, 4 and fixing 2 is 3 cycles (an empty piece is
    dropped), a rotation of 0 .. 5 by 2 is 2, and two fixed pieces of 5
    and 2 positions are 7."""
    assert smoothing._count_orbits([(0, 3, 0)], 3) == 3
    assert smoothing._count_orbits([(0, 2, 3), (2, 3, 2), (3, 5, 0), (5, 5, 9)], 5) == 3
    assert smoothing._count_orbits([(0, 4, 2), (4, 6, 0)], 6) == 2
    assert smoothing._count_orbits([(0, 5, 0), (5, 7, 5)], 7) == 7
    assert smoothing._count_orbits([], 0) == 0


def test_induction_refuses_pieces_that_are_no_bijection():
    """The pieces must tile 0 .. n-1 as domains and as images.  Two pieces
    sent onto one image, a gap, a domain overlap and a wrong n are each
    refused before any step, where the induction on the lengths alone
    would count some bijection that the pieces are not."""
    for pieces, n in (
        ([(0, 2, 3), (2, 3, 3), (3, 5, 0)], 5),  # image 3 twice, 2 never
        ([(0, 2, 2), (2, 4, 0)], 5),  # position 4 is no domain and no image
        ([(0, 3, 2), (2, 5, 0)], 5),  # domains overlap at 2
        ([(0, 2, 2), (2, 4, 0)], 3),
    ):
        with pytest.raises(RuntimeError, match="do not tile"):
            smoothing._count_orbits(pieces, n)


def test_corrupted_pieces_are_refused_by_the_induction(monkeypatch):
    """The corruption that the walk finds as a cycle that does not close
    fails the induction's tiling check, on curves past the walk's side."""
    real = smoothing._return_pieces

    def corrupted(mc):
        blocks, offsets, pieces = real(mc)
        lo, hi, _ = pieces[1]
        pieces[1] = (lo, hi, pieces[4][2])
        return blocks, offsets, pieces

    monkeypatch.setattr(smoothing, "_return_pieces", corrupted)
    for mc in (MultiCurve((300, 400, 500), (200, 600, 100)), MultiCurve((700, 1), (1, 900))):
        assert not _walks(mc)
        with pytest.raises(RuntimeError, match="do not tile"):
            trace_components(mc)


def _fibonacci(count: int) -> list[int]:
    out = [1, 2]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out


def test_torus_counts_are_gcd_up_to_a_trillion():
    """q meridian copies against p longitude copies close into gcd(p, q)
    curves for p, q up to 10**12: random pairs, pairs with a large common
    factor, consecutive Fibonacci numbers (Euclid's slowest case) and the
    edges p = q and p = 1."""
    rng = random.Random(1012)
    pairs = [(rng.randint(1, 10**12), rng.randint(1, 10**12)) for _ in range(300)]
    for _ in range(300):
        f = rng.randint(1, 10**6)
        pairs.append((f * rng.randint(1, 10**6), f * rng.randint(1, 10**6)))
    fib = _fibonacci(58)
    assert fib[-1] < 10**12 < fib[-1] + fib[-2]
    pairs += list(zip(fib, fib[1:])) + [(10**12, 10**12), (1, 10**12), (10**12, 1)]
    for p, q in pairs:
        assert trace_components(MultiCurve((q,), (p,))) == math.gcd(p, q), (p, q)


def test_induction_steps_grow_with_log_n(monkeypatch):
    """The induction's steps stay within pieces * log2(n): on the Fibonacci
    tori, where each step is one division of Euclid's algorithm, and on
    seeded chains of genus 1 to 16 with weights up to 10**12, zeros
    included.  A walk would take n steps."""
    for p, q in zip(_fibonacci(58), _fibonacci(59)[1:]):
        mc = MultiCurve((q,), (p,))
        n = p + q - 1
        assert _induction_steps(mc, monkeypatch) <= 3 * math.log2(n) + 1, (p, q)
    rng = random.Random(2006)
    for _ in range(60):
        k = rng.randint(2, 17)
        meridians = tuple(0 if rng.random() < 0.1 else rng.randint(1, 10**12) for _ in range(k))
        longitudes = tuple(0 if rng.random() < 0.1 else rng.randint(1, 10**12) for _ in range(k))
        if not any(meridians + longitudes):
            continue
        mc = MultiCurve(meridians, longitudes)
        _, offsets, pieces = smoothing._return_pieces(mc)
        live = sum(lo < hi for lo, hi, _ in pieces)
        steps = _induction_steps(mc, monkeypatch)
        assert steps <= live * math.log2(offsets[-1]), (meridians, longitudes, steps)


def test_induction_memory_is_linear_in_the_pieces():
    """``exactly:100000,8`` has 1,999,984 entry positions in 54 pieces.  The
    count keeps the pieces' lengths and two orders of them, a few KiB;
    the walk would hold a successor list of about 100 MiB."""
    curve = exact_knot(100_000, 8).curve
    blocks, offsets, pieces = smoothing._return_pieces(curve)
    assert (len(pieces), offsets[-1]) == (54, 1_999_984)
    tracemalloc.start()
    try:
        assert trace_components(curve) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, f"peak {peak} bytes for {len(pieces)} pieces"
