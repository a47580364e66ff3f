"""Interval propagation: rule catalog, provenance chains, confluence."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from oracles import BOUNDS_AXES, catalog_holds, feasible_points
from surfrep.bounds import (
    ATTRIBUTES,
    RULE_ORDER,
    Contradiction,
    Interval,
    SubjectTags,
    betti1,
    propagate,
)
from surfrep.certificate import representativity_exact
from surfrep.families import exact_knot, lpq_link, torus_knot


def F(x) -> Fraction:
    return Fraction(x)


def _tags(*items: str) -> SubjectTags:
    return SubjectTags.from_strings(items)


def snapshot(facts: dict[str, Interval]) -> dict[str, tuple[Fraction, Fraction | None]]:
    """Endpoint values only; the order-independent part of a fixed point."""
    return {name: (iv.lo, iv.hi) for name, iv in facts.items()}


def test_betti1_counts():
    assert betti1(2, 3, 1) == 2  # theta curve and handcuff share these counts
    assert betti1(5, 4, 1) == 0  # tree
    assert betti1(1, 1, 1) == 1  # single loop


def test_betti1_rejects_inconsistent_counts():
    with pytest.raises(ValueError):
        betti1(0, 0, 0)
    with pytest.raises(ValueError):
        betti1(3, -1, 1)
    with pytest.raises(ValueError):
        betti1(3, 2, 0)
    with pytest.raises(ValueError):
        betti1(2, 1, 3)
    with pytest.raises(ValueError):
        betti1(5, 0, 1)  # five vertices cannot form one component with no edges


def test_interval_basics():
    with pytest.raises(ValueError):
        Interval(F(-1))
    with pytest.raises(ValueError):
        Interval(F(3), F(2))
    # endpoints are exact: a float is not, and a bool is not a number
    for lo, hi in ((0.5, None), (True, None), (F(0), 2.5), (F(0), True)):
        with pytest.raises(ValueError, match="ints or Fractions"):
            Interval(lo, hi)
    assert Interval(1, 2) == Interval(F(1), F(2))
    iv = Interval(F(0), Fraction(5, 3))
    assert iv.integer_hull() == (0, 1)
    assert iv.contains(1) and not iv.contains(2)
    assert Interval(F(1)).integer_hull() == (1, None)
    assert Interval(Fraction(3, 2)).contains(Fraction(3, 2))
    as_json = Interval(Fraction(1, 2), F(4), ("R1",), ("seed:bs", "R3")).to_json()
    assert as_json == {
        "lo": "1/2",
        "hi": "4",
        "lo_rules": ["R1"],
        "hi_rules": ["seed:bs", "R3"],
    }


def test_tag_parsing_and_validation():
    tags = _tags("torus_knot=3,5", "primitive")
    assert tags.torus_knot == (3, 5)
    assert tags.labels() == ("primitive", "torus_knot=3,5")
    assert "nontrivial_knot" in tags.effective

    assert _tags("theta_curve", "primitive").effective == {"theta_curve", "primitive"}
    assert "nontrivial_knot" in _tags("composite").effective

    for bad in (
        ("mystery",),
        ("two_bridge", "two_bridge"),
        ("torus_knot",),  # missing parameters
        ("torus_knot=3",),
        ("torus_knot=a,b",),
        ("torus_knot=1_0,3",),  # int() would read 10,3
        ("torus_knot=\u0663,5",),
        ("torus_knot=+3,5",),
        ("torus_knot=1,5",),  # unknot
        ("torus_knot=2,4",),  # not coprime, a link
        ("pretzel=1,2",),
        ("two_bridge=3",),  # stray parameters
        ("theta_curve", "two_bridge"),
        ("theta_curve", "nontrivial_knot"),
    ):
        with pytest.raises(ValueError):
            _tags(*bad)


#-- Fixed points traced by hand --#

def test_torus_knot_fixpoint():
    fs = propagate(_tags("torus_knot=3,5"))
    assert type(fs) is dict and tuple(fs) == ATTRIBUTES
    assert snapshot(fs) == {
        "r": (F(3), F(3)),
        "b": (F(3), F(3)),
        "bs": (F(6), F(6)),
        "waist": (F(0), F(2)),
        "beta1": (F(0), None),
        "components": (F(0), None),
    }
    # provenance under the default rule order
    assert fs["r"].lo_rules == ("R4",) and fs["r"].hi_rules == ("R4",)
    assert fs["bs"].lo_rules == ("R4", "R1")
    assert fs["bs"].hi_rules == ("R4", "R3")
    assert fs["waist"].hi_rules == ("R4", "R3", "R12")


def test_two_bridge_fixpoint():
    fs = propagate(_tags("two_bridge"))
    assert snapshot(fs) == {
        "r": (F(2), F(2)),
        "b": (F(2), F(2)),
        "bs": (F(4), F(4)),
        "waist": (F(0), Fraction(4, 3)),
        "beta1": (F(0), None),
        "components": (F(0), None),
    }
    assert fs["waist"].integer_hull() == (0, 1)


def test_composite_with_seeded_bridge_number():
    fs = propagate(_tags("composite"), {"b": 4})
    assert fs["r"].lo == fs["r"].hi == 2
    assert fs["bs"].lo == fs["bs"].hi == 8
    assert fs["bs"].hi_rules == ("seed:b", "R3")
    assert fs["r"].hi_rules == ("R8",)


def test_parity_contradiction():
    # bs = 2b forces even bs; a seeded bs of 3 cannot survive
    with pytest.raises(Contradiction) as default_order:
        propagate(_tags("nontrivial_knot"), {"bs": 3})
    assert "seed:bs" in default_order.value.rules

    # under the reversed order R3 halves the seed first: b = [3/2, 3/2]
    with pytest.raises(Contradiction) as reversed_order:
        propagate(_tags("nontrivial_knot"), {"bs": 3}, rule_order=RULE_ORDER[::-1])
    exc = reversed_order.value
    assert exc.attribute == "b"
    assert exc.lo == exc.hi == Fraction(3, 2)
    assert exc.rules == ("seed:bs", "R3")


def test_relations_read_integer_endpoints():
    """bs = 2b sees that b > 9/2 means b >= 5, so bs >= 10, not 9."""
    fs = propagate(_tags("algebraic"), {"waist": 3})
    snap = snapshot(fs)
    assert snap["b"] == (F(5), None) and snap["bs"] == (F(10), None)
    assert fs["bs"].lo_rules == ("seed:waist", "R12", "R3")
    # stored endpoints stay rational where no relation has rounded them
    assert propagate(SubjectTags(), {"bs": 7})["r"].hi == Fraction(7, 2)


def test_every_endpoint_is_a_fraction():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        tags, seeds = _random_subject(rng)
        try:
            fs = propagate(tags, seeds)
        except Contradiction:
            continue
        for name in ATTRIBUTES:
            assert type(fs[name].lo) is Fraction, (tags, seeds, name)
            assert fs[name].hi is None or type(fs[name].hi) is Fraction, (tags, seeds, name)
        checked += 1


def test_pretzel_rules():
    for params in ("-2,3,3", "2,-3,-3", "-2,3,5", "2,-3,-5", "3,-2,5"):
        fs = propagate(_tags(f"pretzel={params}"))
        assert fs["r"].lo == fs["r"].hi == 3

    # outside the listed pairs only r != 3 is known; alone that leaves r wide
    wide = propagate(_tags("pretzel=1,3,7"))
    assert wide["r"].lo == 2 and wide["r"].hi is None

    # with the algebraic tag the ceiling 3 collides with r != 3
    narrowed = propagate(_tags("pretzel=1,3,7", "algebraic"))
    assert narrowed["r"].lo == narrowed["r"].hi == 2
    assert narrowed["r"].hi_rules == ("R6", "R7")

    with pytest.raises(Contradiction):
        propagate(_tags("pretzel=-2,3,5", "composite"))  # r = 3 vs r = 2
    with pytest.raises(Contradiction):
        propagate(_tags("pretzel=1,3,7"), {"r": 3})  # seeded onto the excluded value

    # a knot can carry both tags when the values agree
    both = propagate(_tags("torus_knot=3,5", "pretzel=-2,3,5"))
    assert both["r"].lo == both["r"].hi == 3


def test_theta_curve_rules():
    fs = propagate(_tags("theta_curve", "primitive"), {"beta1": 2, "b": 2})
    assert fs["r"].lo == 1 and fs["r"].hi == 2
    assert fs["r"].hi_rules == ("seed:beta1", "R11")
    assert fs["bs"].lo == 2 and fs["bs"].hi == 5
    assert fs["bs"].hi_rules == ("seed:b", "R10")
    assert fs["waist"].hi == Fraction(5, 3)
    assert fs["waist"].integer_hull() == (0, 1)

    # the reverse direction of R10: a string count forces bridges
    lo = propagate(_tags("theta_curve"), {"bs": 7})
    assert lo["b"].lo == 3
    assert lo["b"].lo_rules == ("seed:bs", "R10")


def test_seed_and_order_validation():
    with pytest.raises(ValueError):
        propagate(_tags(), {"girth": 3})
    with pytest.raises(ValueError):
        propagate(_tags(), {"b": -1})
    with pytest.raises(ValueError):
        propagate(_tags(), {"b": 2.5})
    with pytest.raises(ValueError):
        propagate(_tags(), {"b": True})
    with pytest.raises(ValueError):
        propagate(_tags(), rule_order=("R1", "R2"))
    # rational seeds are allowed; integrality then rejects a half bridge number
    with pytest.raises(Contradiction):
        propagate(_tags(), {"b": Fraction(3, 2)})


#-- Engine-level properties --#

def _random_subject(rng: random.Random) -> tuple[SubjectTags, dict[str, int]]:
    while True:
        names = {name for name in sorted(TAGS_POOL) if rng.random() < 0.25}
        torus = pretzel = None
        if "torus_knot" in names:
            while True:
                p, q = rng.randrange(2, 10), rng.randrange(2, 10)
                if math.gcd(p, q) == 1:
                    torus = (p, q)
                    break
        if "pretzel" in names:
            pretzel = (rng.randrange(-5, 6), rng.randrange(-5, 6), rng.randrange(-5, 6))
        try:
            tags = SubjectTags(frozenset(names), torus, pretzel)
        except ValueError:
            continue
        seeds = {
            name: rng.randrange(0, 13) for name in ATTRIBUTES if rng.random() < 0.25
        }
        return tags, seeds


TAGS_POOL = (
    "nontrivial_knot",
    "torus_knot",
    "two_bridge",
    "algebraic",
    "pretzel",
    "composite",
    "has_conway_sphere",
    "theta_curve",
    "primitive",
    "spatial_graph",
)


def _outcome(tags, seeds, order):
    try:
        return snapshot(propagate(tags, seeds, rule_order=tuple(order)))
    except Contradiction:
        return "contradiction"


def test_rule_order_does_not_change_the_fixed_point():
    rng = random.Random(20260825)
    contradictions = 0
    for _ in range(100):
        tags, seeds = _random_subject(rng)
        reference = _outcome(tags, seeds, RULE_ORDER)
        if reference == "contradiction":
            contradictions += 1
        for _ in range(3):
            order = rng.sample(RULE_ORDER, len(RULE_ORDER))
            assert _outcome(tags, seeds, order) == reference
    # the sweep must exercise both outcomes
    assert 0 < contradictions < 100


def test_extra_seeds_only_narrow():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        tags, seeds = _random_subject(rng)
        try:
            base = propagate(tags, seeds)
        except Contradiction:
            continue
        extra = dict(seeds)
        attr = rng.choice(ATTRIBUTES)
        lo_int, hi_int = base[attr].integer_hull()
        if attr in extra or (hi_int is not None and lo_int > hi_int):
            continue
        extra[attr] = lo_int if hi_int is None else rng.randint(lo_int, hi_int)
        try:
            tighter = propagate(tags, extra)
        except Contradiction:
            checked += 1  # still a legitimate narrowing outcome
            continue
        for name in ATTRIBUTES:
            assert tighter[name].lo >= base[name].lo
            if base[name].hi is not None:
                assert tighter[name].hi is not None
                assert tighter[name].hi <= base[name].hi
        checked += 1


#-- Agreement with the enumerated catalog --#

def test_fixed_point_agrees_with_the_enumerated_catalog():
    """Plain predicates, one per rule, against the interval engine.

    No feasible integer point is cut off, a contradiction leaves none,
    and each relation narrows both ways on integer endpoints, so the
    integer lower endpoints satisfy the catalog together, as do the
    integer upper ones when all are finite.
    """
    rng = random.Random(20261018)
    seen = {"points": 0, "contradiction": 0, "finite": 0}
    for _ in range(400):
        tags, seeds = _random_subject(rng)
        points = feasible_points(tags, seeds, 7)
        try:
            fs = propagate(tags, seeds)
        except Contradiction:
            assert not points, (tags, seeds, points[:3])
            seen["contradiction"] += 1
            continue
        for point in points:
            assert all(fs[axis].contains(v) for axis, v in zip(BOUNDS_AXES, point)), (
                tags, seeds, point)
        seen["points"] += bool(points)
        hulls = [fs[axis].integer_hull() for axis in BOUNDS_AXES]
        assert catalog_holds(tags, *(lo for lo, _ in hulls)), (tags, seeds)
        highs = [hi for _, hi in hulls]
        if None not in highs:
            assert catalog_holds(tags, *highs), (tags, seeds)
            seen["finite"] += 1
    assert min(seen.values()) >= 10, seen


def test_primitive_lifts_beta1_to_r():
    """R11 narrows both ways: r <= beta1 also raises beta1 to r."""
    fs = propagate(_tags("primitive"), {"r": 3})
    assert fs["beta1"].lo == 3
    assert fs["beta1"].lo_rules == ("seed:r", "R11")


#-- Agreement with the curve families --#

def test_family_values_lie_inside_propagated_intervals():
    for p, q in ((2, 3), (3, 5), (4, 5), (2, 7)):
        inst = torus_knot(p, q)
        fs = propagate(_tags(f"torus_knot={p},{q}"))
        value = inst.curve.min_boundary_count()
        assert value == min(p, q)
        assert fs["r"].contains(value)
        assert fs["bs"].contains(2 * value)

    knot_facts = propagate(_tags("nontrivial_knot"))
    for n, g in ((2, 1), (4, 1), (4, 2)):
        rep = representativity_exact(exact_knot(n, g).curve)
        assert rep.exact == n
        assert knot_facts["r"].contains(rep.exact)

    for p, q in ((1, 4), (2, 7)):
        rep = representativity_exact(lpq_link(p, q).curve)
        assert rep.exact == 2 * p
        # the recorded 6p bridge strings bound r through R1, with slack
        fs = propagate(SubjectTags(), {"bs": 6 * p})
        assert fs["r"].contains(rep.exact)
        assert fs["r"].hi == Fraction(6 * p, 2)
        assert rep.exact < fs["r"].hi
