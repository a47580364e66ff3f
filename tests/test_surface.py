"""The crossing pairing, multicurve counts, the surface a weight count names,
and the permutation cycle walk."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from oracles import adjacent, cheapest_class
from surfrep.surface import MultiCurve, _crossed, _cycles


#-- Pairing oracle --#

def pairing_matrix(k: int) -> tuple[tuple[int, ...], ...]:
    """P[j][i] = 1 when the package lists m_i among the meridians l_j crosses,
    with k classes per family."""
    return tuple(
        tuple(int(i in _crossed(k, "l", j)) for i in range(k)) for j in range(k)
    )


def _all_row_col_sum2_matrices(k: int):
    """All 0/1 k-by-k matrices with every row and column sum equal to 2."""
    out = []
    for bits in itertools.product((0, 1), repeat=k * k):
        m = tuple(tuple(bits[j * k + i] for i in range(k)) for j in range(k))
        if all(sum(row) == 2 for row in m) and all(
            sum(m[j][i] for j in range(k)) == 2 for i in range(k)
        ):
            out.append(m)
    return out


# Frozen crossing totals for the genus-2 chain surface.  With longitude
# weights b and meridian weights a below, one copy of m_i must be crossed
# count_m[i] times in total and one copy of l_j count_l[j] times.  These
# totals, together with the adjacency structure (each longitude crosses
# exactly two meridians once each, each meridian is crossed by exactly two
# longitudes), pin the pairing matrix down uniquely.
_COUNT_CASES = [
    # (a, b, count_m, count_l)
    ((5, 4, 2), (2, 2, 2), (4, 4, 4), (7, 9, 6)),
    ((6, 5, 3), (3, 2, 3), (5, 5, 6), (9, 11, 8)),
]


def test_chain2_pairing_is_unique_solution_of_count_equations():
    """Brute force over all candidate pairing matrices leaves exactly one."""
    candidates = _all_row_col_sum2_matrices(3)
    assert len(candidates) == 6  # complements of 3x3 permutation matrices

    for a, b, count_m, count_l in _COUNT_CASES:
        surviving = [
            m
            for m in candidates
            if all(sum(b[j] * m[j][i] for j in range(3)) == count_m[i] for i in range(3))
            and all(sum(a[i] * m[j][i] for i in range(3)) == count_l[j] for j in range(3))
        ]
        assert len(surviving) == 1
        assert surviving[0] == pairing_matrix(3)


def test_chain_pairing_structure():
    """Row/column sums, cyclic symmetry, and self-adjacency for all genera."""
    for k in range(2, 7):
        p = pairing_matrix(k)
        assert all(sum(row) == 2 for row in p)
        assert all(sum(p[j][i] for j in range(k)) == 2 for i in range(k))
        for j in range(k):
            assert p[j][j] == 1
            for i in range(k):
                assert p[(j + 1) % k][(i + 1) % k] == p[j][i]


def test_torus_pairing():
    assert pairing_matrix(1) == ((1,),)
    assert _crossed(1, "l", 0) == _crossed(1, "m", 0) == (0,)


def _surfaces(genera: range) -> list:
    """The weight count k of the torus, 1, and of the chain surfaces of
    ``genera``, g + 1, each with the surface as its id."""
    return [pytest.param(1, id="torus"), *(pytest.param(g + 1, id=str(g)) for g in genera)]


@pytest.mark.parametrize("k", _surfaces(range(1, 7)))
def test_crossed_longitudes_transpose_crossed_meridians(k: int):
    """j is among the longitudes m_i crosses exactly when i is among the
    meridians l_j crosses.  Each lists its classes once, ascending: two
    on a chain surface, the one class on the torus."""
    for x in range(k):
        for y in range(k):
            assert (y in _crossed(k, "m", x)) == (x in _crossed(k, "l", y))
        for family in "ml":
            crossed = _crossed(k, family, x)
            assert list(crossed) == sorted(set(crossed))
            assert len(crossed) == min(k, 2)


#-- Boundary counts --#

def test_torus_multicurve_counts():
    """q copies of the meridian and p of the longitude: counts swap."""
    for p, q in [(3, 5), (2, 7), (1, 1), (4, 6)]:
        mc = MultiCurve((q,), (p,))
        assert mc.boundary_count("m", 0) == p
        assert mc.boundary_count("l", 0) == q
        assert cheapest_class(mc) == min(p, q)


def test_chain2_multicurve_counts():
    for a, b, count_m, count_l in _COUNT_CASES:
        mc = MultiCurve(a, b)
        for i in range(3):
            assert mc.boundary_count("m", i) == count_m[i]
            assert mc.boundary_count("l", i) == count_l[i]
    assert cheapest_class(MultiCurve((5, 4, 2), (2, 2, 2))) == 4


def test_chain1_counts_merge_families():
    """Genus 1: both meridians meet both longitudes, so counts are sums."""
    mc = MultiCurve((3, 4), (2, 5))
    for i in range(2):
        assert mc.boundary_count("m", i) == 7
        assert mc.boundary_count("l", i) == 7


@given(
    g=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_double_counting_identity(g: int, seed: int):
    """Sum of a_i * count(m_i) equals sum of b_j * count(l_j)."""
    import random

    rng = random.Random(seed)
    k = g + 1
    a = tuple(rng.randrange(0, 11) for _ in range(k))
    b = tuple(rng.randrange(0, 11) for _ in range(k))
    if sum(a) + sum(b) == 0:
        a = (1,) + a[1:]
    mc = MultiCurve(a, b)
    lhs = sum(a[i] * mc.boundary_count("m", i) for i in range(k))
    rhs = sum(b[j] * mc.boundary_count("l", j) for j in range(k))
    assert lhs == rhs


#-- Validation and serialization --#

def test_boundary_count_refuses_a_class_off_the_surface():
    """A class is a family "m" or "l" and an index in 0..k-1: anything
    else is refused with one message, and a bool or float index is not
    an integer."""
    for k in range(1, 5):
        mc = MultiCurve((1,) * k, (2,) * k)
        for family, index in (("x", 0), ("M", 0), ("", 0), ("m", -1), ("l", -1), ("m", k),
                              ("l", k), ("m", k + 2)):
            message = f"no class {family}{index} on a surface with {k} classes per family"
            with pytest.raises(ValueError, match=f"^{message}$"):
                mc.boundary_count(family, index)
        for bad in (True, False, 0.0, 2.0):
            with pytest.raises(ValueError, match="^class index must be an integer"):
                mc.boundary_count("m", bad)


def test_multicurve_validation():
    """The weight count names the surface, so no count names none: an empty
    family, or two families of different lengths, is refused with one
    message."""
    for meridians, longitudes in (((), ()), ((1, 2), (1, 2, 3)), ((1,), ()), ((), (1,))):
        message = ("^expected the same positive number of weights per family, got "
                   f"{len(meridians)} meridian and {len(longitudes)} longitude$")
        with pytest.raises(ValueError, match=message):
            MultiCurve(meridians, longitudes)
    with pytest.raises(ValueError, match="^weights must be nonnegative"):
        MultiCurve((1, 2, -1), (1, 2, 3))
    with pytest.raises(ValueError, match="^weight must be an integer"):
        MultiCurve((1, 2, 3), (1, 2.5, 3))  # type: ignore[arg-type]
    for k in (1, 3):
        with pytest.raises(ValueError, match="^multicurve needs at least one positive weight$"):
            MultiCurve((0,) * k, (0,) * k)


@pytest.mark.parametrize("k", _surfaces(range(1, 8)))
def test_multicurve_to_json(k: int):
    """``generate`` prints a multicurve in this form; no command reads it
    back.  The surface is derived from the weight count k: the torus at
    k = 1, the chain surface of genus k - 1 above."""
    meridians, longitudes = tuple(range(5, 5 + k)), (2,) * k
    surface = {"kind": "torus", "genus": 1} if k == 1 else {"kind": "chain", "genus": k - 1}
    assert MultiCurve(meridians, longitudes).to_json() == {
        "surface": surface,
        "meridians": list(meridians),
        "longitudes": list(longitudes),
    }
    assert not hasattr(MultiCurve, "from_json")


@pytest.mark.parametrize("bad", [True, 2.0])
def test_constructors_reject_non_integers(bad):
    """Each constructor refuses a float or a bool where it takes a count."""
    for build in (
        lambda: MultiCurve((bad,), (2,)),
        lambda: MultiCurve((1, 1), (bad, 1)),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            build()


@pytest.mark.parametrize("k", _surfaces(range(1, 9)))
def test_boundary_count_matches_adjacency_formula(k: int):
    """boundary_count is the sum of weight x [l_j adjacent to m_i], with
    adjacency read from the explicit rule (i - j) % k in (0, k - 1); at
    k = 1 the rule gives the torus's single crossing."""
    rng = random.Random(k - 1)

    for _ in range(20):
        a = tuple(rng.randrange(0, 50) for _ in range(k))
        b = tuple(rng.randrange(0, 50) for _ in range(k))
        if not any(a + b):
            continue
        mc = MultiCurve(a, b)
        for i in range(k):
            want = sum(b[j] * adjacent(k, j, i) for j in range(k))
            assert mc.boundary_count("m", i) == want
        for j in range(k):
            want = sum(a[i] * adjacent(k, j, i) for i in range(k))
            assert mc.boundary_count("l", j) == want
    assert pairing_matrix(k) == tuple(
        tuple(adjacent(k, j, i) for i in range(k)) for j in range(k)
    )


#-- Permutation cycles --#

@given(st.integers(0, 60).flatmap(lambda n: st.permutations(range(n))))
def test_cycles_partition_a_permutation_from_their_least_elements(perm):
    """The cycles partition 0 .. n-1; each starts at its least element and
    follows ``perm``, closing at its start, the starts ascend, and
    ``index`` names each element's cycle."""
    cycles, index = _cycles(perm)
    assert sorted(p for cycle in cycles for p in cycle) == list(range(len(perm)))
    assert all(cycle[0] == min(cycle) for cycle in cycles)
    assert [cycle[0] for cycle in cycles] == sorted(cycle[0] for cycle in cycles)
    assert len(index) == len(perm)
    for k, cycle in enumerate(cycles):
        assert all(index[p] == k for p in cycle)
        assert [perm[p] for p in cycle] == cycle[1:] + cycle[:1]


@pytest.mark.parametrize("perm", [[1, 1], [0, 0], [1, 2, 1], [2, 0, 0, 3]])
def test_cycles_refuse_two_elements_with_one_image(perm):
    """A list that sends two elements to one image is no permutation: some
    walk stops on an element seen before other than its start."""
    with pytest.raises(RuntimeError, match="does not close"):
        _cycles(perm)
