"""Interval propagation: rule catalog, provenance chains, confluence."""

from __future__ import annotations

import contextlib
import math
import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

from oracles import BOUNDS_AXES, catalog_holds, feasible_points, pretzel_components
from surfrep import bounds
from surfrep.bounds import (
    ATTRIBUTES,
    Contradiction,
    Interval,
    SubjectTags,
    _CATALOG,
    _apply,
    _chain,
    _steps,
    propagate,
    seeds_from_strings,
)
from surfrep.certificate import representativity_exact
from surfrep.cli import _fact
from surfrep.families import exact_knot, lpq_link, torus_knot


def F(x) -> Fraction:
    return Fraction(x)


def exact(value: int | Fraction) -> Interval:
    """The seed of a known exact value."""
    return Interval(value, value)


def _tags(*items: str) -> SubjectTags:
    return SubjectTags.from_strings(items)


#: the rule ids in the order a pass applies them
RULE_ORDER = tuple(_CATALOG)


@contextlib.contextmanager
def catalog_order(order):
    """Run ``propagate`` with the rule catalog reordered to ``order``, a
    permutation of ``RULE_ORDER``: a pass applies ``_CATALOG`` as it
    iterates, so the reordered dict is the rule order."""
    assert sorted(order) == sorted(RULE_ORDER), order
    original = bounds._CATALOG
    bounds._CATALOG = {rule: original[rule] for rule in order}
    try:
        yield
    finally:
        bounds._CATALOG = original


def snapshot(
    facts: dict[str, Interval],
) -> dict[str, tuple[int | Fraction, int | Fraction | None]]:
    """Endpoint values only; the order-independent part of a fixed point."""
    return {name: (iv.lo, iv.hi) for name, iv in facts.items()}


def canonical(q: int | Fraction) -> bool:
    """Whether ``q`` is in the one stored form: an int, or a Fraction that
    is not integral; ``Fraction(6)`` is not."""
    return type(q) is int or (type(q) is Fraction and q.denominator != 1)


def contains(iv: Interval, value: int | Fraction) -> bool:
    """Whether ``value`` lies in ``iv``, a None upper end being unbounded."""
    return iv.lo <= value and (iv.hi is None or value <= iv.hi)


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
    assert Interval(F(1)).integer_hull() == (1, None)


def test_the_cli_writes_an_interval_as_a_fact():
    """The bounds report's ``facts`` entries are the CLI's to write:
    exact endpoints as strings, an open end as null, both chains."""
    assert _fact(Interval(Fraction(1, 2), F(4), ("R1",), ("seed:bs", "R3"))) == {
        "lo": "1/2",
        "hi": "4",
        "lo_rules": ["R1"],
        "hi_rules": ["seed:bs", "R3"],
    }
    assert _fact(Interval(F(2))) == {"lo": "2", "hi": None, "lo_rules": [], "hi_rules": []}
    assert not hasattr(Interval, "to_json")


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


def test_tag_parameters_are_strict_integers():
    """Parameters passed to the constructor come with their tag, and follow
    the package's integer rule as those read from strings do: a float or
    bool is refused, not labelled."""
    torus = "torus_knot requires parameters p,q and no other tag does"
    pretzel = "pretzel requires three strand parameters"
    for names, params, message in (
        ({"torus_knot"}, {}, torus),
        (set(), {"torus_knot": (3, 5)}, torus),
        ({"pretzel"}, {}, pretzel),
        ({"two_bridge"}, {"pretzel": (-3, 5, 7)}, pretzel),
        ({"pretzel"}, {"pretzel": (1.5, True, 3)}, "pretzel parameter must be an integer, got 1.5"),
        ({"pretzel"}, {"pretzel": (1, True, 3)}, "pretzel parameter must be an integer, got True"),
        # math.gcd would raise a TypeError on 3.5
        ({"torus_knot"}, {"torus_knot": (2, 3.5)},
         "torus_knot parameter must be an integer, got 3.5"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SubjectTags(frozenset(names), **params)
    assert SubjectTags(frozenset({"pretzel"}), pretzel=(-3, 5, 7)).labels() == ("pretzel=-3,5,7",)


def test_pretzel_parameters_close_into_a_knot():
    """The pretzel tag takes exactly the triples whose diagram P(p, q, s),
    walked crossing by crossing, closes into one nontrivial knot: with two
    or three even parameters it is a link, and with an entry in {-1, 0, 1}
    and determinant |pq + qs + sp| = 1 it is the unknot."""
    links, unknots = 0, set()
    for params in product(range(-5, 6), repeat=3):
        if pretzel_components(params) != 1:
            links += 1
            with pytest.raises(ValueError, match="^pretzel parameters .* give a link$"):
                SubjectTags(frozenset({"pretzel"}), pretzel=params)
            continue
        try:
            assert SubjectTags(frozenset({"pretzel"}), pretzel=params).pretzel == params
        except ValueError as exc:
            assert re.fullmatch("pretzel parameters .* give the unknot", str(exc)), params
            unknots.add(params)
    assert links == 575  # 450 with two components, 125 with three
    assert len(unknots) == 78
    assert len({tuple(sorted(params)) for params in unknots}) == 15
    for unknot in ((-1, 1, 5), (1, -1, 1), (-3, -2, 1), (-1, 2, 3), (0, 1, 1)):
        assert unknot in unknots
    # determinant 1 is not enough: with every |entry| >= 2 the bridge number is 3
    assert {(-2, 3, 5), (-2, 3, 7)}.isdisjoint(unknots)


def test_seeds_read_as_exact_intervals():
    """``name=p/q`` reads as the interval [p/q, p/q], stored as the int
    where p/q is integral, and tags and seeds share one split: the name
    stripped, an empty or a repeated name refused."""
    seeds = seeds_from_strings([" bs = 12/2 ", "r=7/2", "waist=-0"])
    assert seeds == {"bs": exact(6), "r": exact(Fraction(7, 2)), "waist": exact(0)}
    assert all(canonical(iv.lo) and canonical(iv.hi) for iv in seeds.values())
    assert type(seeds["bs"].lo) is int and type(seeds["r"].lo) is Fraction
    for read, items, message in (
        (seeds_from_strings, [" = 3"], "seed ' = 3' must look like b=3 or bs=7/2"),
        (seeds_from_strings, ["b=2", " b =3"], "duplicate seed for 'b'"),
        (SubjectTags.from_strings, [" =3"],
         "tag ' =3' must look like two_bridge or torus_knot=3,5"),
        (SubjectTags.from_strings, ["two_bridge", " two_bridge "], "duplicate tag 'two_bridge'"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read(items)


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
    fs = propagate(_tags("composite"), {"b": exact(4)})
    assert fs["r"].lo == fs["r"].hi == 2
    assert fs["bs"].lo == fs["bs"].hi == 8
    assert fs["bs"].hi_rules == ("seed:b", "R3")
    assert fs["r"].hi_rules == ("R8",)


@pytest.mark.parametrize("tags", [(), ("primitive",), ("spatial_graph",), ("theta_curve",)])
def test_every_subject_has_a_bridge(tags):
    """R13: every subject has at least one maximum, so b >= 1 with or
    without a tag that says so; a seeded b = 0 contradicts it."""
    with pytest.raises(Contradiction) as caught:
        propagate(_tags(*tags), {"b": exact(0)})
    exc = caught.value
    assert (exc.attribute, exc.lo, exc.hi) == ("b", 1, 0)
    assert exc.rules == ("R13", "seed:b")
    fs = propagate(_tags(*tags), {"b": exact(1)})
    assert fs["b"].lo == fs["b"].hi == 1
    assert propagate(_tags(*tags))["b"].lo >= 1


def test_the_spatial_graph_tag_switches_on_no_rule():
    """``spatial_graph`` names a subject but no rule reads it: alone, or
    beside any seed, it gives the same facts as no tag."""
    assert propagate(_tags("spatial_graph")) == propagate(_tags())
    for seeds in ({"r": exact(3)}, {"bs": Interval(7)}, {"b": exact(4), "waist": exact(2)}):
        assert propagate(_tags("spatial_graph"), seeds) == propagate(_tags(), seeds)


def test_parity_contradiction():
    # bs = 2b forces even bs; a seeded bs of 3 cannot survive
    with pytest.raises(Contradiction) as default_order:
        propagate(_tags("nontrivial_knot"), {"bs": exact(3)})
    assert "seed:bs" in default_order.value.rules

    # under the reversed order R3 halves the seed first: b = [3/2, 3/2]
    with pytest.raises(Contradiction) as reversed_order, catalog_order(RULE_ORDER[::-1]):
        propagate(_tags("nontrivial_knot"), {"bs": exact(3)})
    exc = reversed_order.value
    assert exc.attribute == "b"
    assert exc.lo == exc.hi == Fraction(3, 2)
    assert exc.rules == ("seed:bs", "R3")


def test_relations_read_integer_endpoints():
    """bs = 2b sees that b > 9/2 means b >= 5, so bs >= 10, not 9."""
    fs = propagate(_tags("algebraic"), {"waist": exact(3)})
    snap = snapshot(fs)
    assert snap["b"] == (F(5), None) and snap["bs"] == (F(10), None)
    assert fs["bs"].lo_rules == ("seed:waist", "R12", "R3")
    # stored endpoints stay rational where no relation has rounded them
    assert propagate(SubjectTags(), {"bs": exact(7)})["r"].hi == Fraction(7, 2)


def test_relations_floor_the_upper_endpoint():
    """bs = 2b sees that b <= 7/2 means b <= 3, so bs <= 6, not 7.  The
    seed leaves bs.lo open: an exact odd bs contradicts whichever way
    ``y.hi`` is rounded, so only such a seed shows the floor."""
    fs = propagate(SubjectTags(frozenset({"nontrivial_knot"})), {"bs": Interval(0, 7)})
    assert fs["bs"].hi == 6 and fs["b"].hi == 3 and fs["r"].hi == 3
    assert fs["bs"].hi_rules == fs["b"].hi_rules == ("seed:bs", "R3")


def test_a_relation_step_computes_the_rational_formulas_in_integers():
    """One relation step x <= c * y + d, for c in {1, 2, 1/2, 1/3} and d in
    {0, 1}, on random intervals with int and Fraction ends, one-sided ones
    included: y.lo rises to (ceil(x.lo) - d) / c and x.hi falls to
    c * floor(y.hi) + d, computed here in Fractions, each end stored as an
    int exactly when it is integral.  An end that moves takes its source
    chain extended by the rule, as ``_chain`` builds it; one that does not
    keeps its chain, and a moved interval with no integer point raises."""
    rng = random.Random(40)
    chains = [(), ("seed:r",), ("R13",), ("seed:bs", "R9")]

    def draw() -> Interval:
        lo = Fraction(rng.randint(0, 30), rng.choice((1, 2, 3, 6)))
        hi = None if rng.random() < 0.3 else lo + Fraction(rng.randint(0, 30), rng.choice((1, 2, 3)))
        return Interval(lo, hi, rng.choice(chains), rng.choice(chains))

    def narrowed(name, iv, lo, hi, lo_rules, hi_rules):
        """``iv`` narrowed to [lo, hi] by R9 and whether an end moved."""
        lo_moves = lo is not None and lo > iv.lo
        hi_moves = hi is not None and (iv.hi is None or hi < iv.hi)
        if not (lo_moves or hi_moves):
            return iv, False
        lo, lo_rules = (lo, _chain(lo_rules, "R9")) if lo_moves else (iv.lo, iv.lo_rules)
        hi, hi_rules = (hi, _chain(hi_rules, "R9")) if hi_moves else (iv.hi, iv.hi_rules)
        if hi is not None and math.ceil(lo) > math.floor(hi):
            raise Contradiction(name, lo, hi, lo_rules, hi_rules)
        return Interval(lo, hi, lo_rules, hi_rules), True

    moved = raised = 0
    for c, d in product((1, 2, Fraction(1, 2), Fraction(1, 3)), (0, 1)):
        for _ in range(300):
            x, y = rng.sample(ATTRIBUTES, 2)
            xi, yi = draw(), draw()
            facts = {x: xi, y: yi}
            try:
                y_new, y_moved = narrowed(y, yi, Fraction(math.ceil(xi.lo) - d) / c, None,
                                          xi.lo_rules, ())
                x_hi = None if yi.hi is None else c * math.floor(yi.hi) + d
                x_new, x_moved = narrowed(x, xi, None, x_hi, (), yi.hi_rules)
            except Contradiction as want:
                with pytest.raises(Contradiction) as got:
                    _apply("R9", [(x, c, y, d)], facts)
                fields = ("attribute", "lo", "hi", "lo_rules", "hi_rules")
                assert [getattr(got.value, f) for f in fields] == [getattr(want, f) for f in fields]
                assert canonical(got.value.lo) and canonical(got.value.hi)
                raised += 1
                continue
            _apply("R9", [(x, c, y, d)], facts)
            assert facts == {x: x_new, y: y_new}, (c, d, xi, yi)
            # an interval is replaced exactly when one of its ends moved
            assert (facts[y] is not yi, facts[x] is not xi) == (y_moved, x_moved)
            for iv in facts.values():
                assert canonical(iv.lo) and (iv.hi is None or canonical(iv.hi))
            moved += y_moved or x_moved
    assert moved > 500 and raised > 50


def test_a_step_replaces_an_interval_exactly_when_an_end_moves():
    """``propagate`` ends a run after a pass that replaces no stored
    interval, so it rests on this: one application of steps leaves
    ``facts[x]`` the very object it was when no end of x moves, and stores
    a new object when one does.  Random facts and every step kind: pins
    with either end None, holes at and beside integer ends, and relations.
    Narrowing only tightens, so an end moved exactly when its value
    changed."""
    rng = random.Random(43)
    chains = [(), ("seed:r",), ("R13",), ("seed:bs", "R9")]

    def draw() -> Interval:
        lo = Fraction(rng.randint(0, 12), rng.choice((1, 2, 3)))
        hi = None if rng.random() < 0.3 else lo + Fraction(rng.randint(0, 12), rng.choice((1, 2)))
        return Interval(lo, hi, rng.choice(chains), rng.choice(chains))

    def step(facts: dict[str, Interval]) -> tuple:
        x, y = rng.sample(ATTRIBUTES, 2)
        iv = facts[x]
        kind = rng.randrange(3)
        if kind == 0:
            lo, hi = (None if rng.random() < 0.4 else rng.randint(0, 14) for _ in "lh")
            return (x, lo, hi)
        if kind == 1:
            ends = [math.ceil(iv.lo)] + ([] if iv.hi is None else [math.floor(iv.hi)])
            return (x, rng.choice(ends) + rng.choice((-1, 0, 0, 1)))
        return (x, rng.choice((1, 2, Fraction(1, 2), Fraction(1, 3))), y, rng.randrange(2))

    counts = {"kept": 0, "replaced": 0}
    for _ in range(3000):
        facts = {name: draw() for name in ATTRIBUTES}
        before = dict(facts)
        steps = [step(facts) for _ in range(rng.randint(1, 3))]
        try:
            _apply("R9", steps, facts)
        except Contradiction:
            continue
        for name in ATTRIBUTES:
            old, new = before[name], facts[name]
            moved = (new.lo, new.hi) != (old.lo, old.hi)
            assert (new is not old) == moved, (steps, old, new)
            counts["replaced" if moved else "kept"] += 1
    assert counts["kept"] > 5000 and counts["replaced"] > 1000, counts


def test_every_endpoint_is_stored_in_canonical_form():
    """Fixed points and contradictions store an integral end as an int and
    any other as a Fraction: R13 refutes b = 0 with int ends, and R1's
    r <= bs/2 refutes bs = 3 for a knot at the Fraction 3/2.  Both
    constructors store an integral Fraction they are given as the int."""
    given = Interval(Fraction(4, 2), Fraction(6))
    refuted_at = Contradiction("b", Fraction(6, 2), Fraction(4, 2), (), ())
    for end in (given.lo, given.hi, refuted_at.lo, refuted_at.hi):
        assert type(end) is int
    with pytest.raises(Contradiction) as bridgeless:
        propagate(_tags(), seeds_from_strings(["b=0"]))
    assert bridgeless.value.attribute == "b"
    assert [type(end) for end in (bridgeless.value.lo, bridgeless.value.hi)] == [int, int]
    with pytest.raises(Contradiction) as odd:
        propagate(_tags("nontrivial_knot"), seeds_from_strings(["bs=3"]))
    assert (odd.value.attribute, odd.value.lo, odd.value.hi) == ("r", 2, Fraction(3, 2))
    assert canonical(odd.value.lo) and canonical(odd.value.hi)
    rng = random.Random(11)
    checked = refuted = 0
    while checked < 200:
        tags, seeds = _random_subject(rng)
        try:
            fs = propagate(tags, seeds)
        except Contradiction as exc:
            assert canonical(exc.lo) and canonical(exc.hi), (tags, seeds)
            refuted += 1
            continue
        for name in ATTRIBUTES:
            assert canonical(fs[name].lo), (tags, seeds, name)
            assert fs[name].hi is None or canonical(fs[name].hi), (tags, seeds, name)
        checked += 1
    assert refuted > 0


def test_every_catalog_entry_builds_steps_of_the_three_kinds():
    """Each rule, a fixed list or a builder over its tag's parameters,
    gives steps that ``_apply`` reads: holes (x, v), pins (x, lo, hi) and
    relations (x, c, y, d), each narrowing an attribute x."""
    built = {}
    for label in ("torus_knot=3,5", "pretzel=1,3,7", "pretzel=-2,3,5"):
        tags = _tags(label)
        for rule, (tag, _) in _CATALOG.items():
            if tag in {"torus_knot", "pretzel"} - tags.names:
                continue
            steps = built[label, rule] = _steps(rule, tags)
            assert steps, rule
            for step in steps:
                assert isinstance(step, tuple) and len(step) in (2, 3, 4), (rule, step)
                assert step[0] in ATTRIBUTES, (rule, step)
    assert built["torus_knot=3,5", "R4"] == [("r", 3, 3), ("b", 3, 3)]
    assert built["pretzel=1,3,7", "R7"] == [("r", 3)]
    assert built["pretzel=-2,3,5", "R7"] == [("r", 3, 3)]


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
    # seeded onto the excluded value: the hole lowers hi first, one end per narrowing
    with pytest.raises(Contradiction) as point:
        propagate(_tags("pretzel=1,3,7"), {"r": exact(3)})
    assert (point.value.lo, point.value.hi, point.value.rules) == (3, 2, ("seed:r", "R7"))

    # a lower end at 3 moves past the hole to 4, chained after what put it there
    past = propagate(_tags("pretzel=1,3,7"), {"r": Interval(3)})
    assert past["r"].lo == 4 and past["r"].hi is None
    assert past["r"].lo_rules == ("seed:r", "R7")
    capped = propagate(_tags("pretzel=1,3,7", "has_conway_sphere"), {"r": Interval(3)})
    assert capped["r"].lo == capped["r"].hi == 4
    assert capped["r"].hi_rules == ("R9",)

    # a knot can carry both tags when the values agree
    both = propagate(_tags("torus_knot=3,5", "pretzel=-2,3,5"))
    assert both["r"].lo == both["r"].hi == 3


def test_the_hole_reads_a_fractional_lower_end_at_its_ceiling():
    """r >= 5/2 holds for an integer r exactly when r >= 3, so r != 3 leaves r >= 4."""
    facts = propagate(_tags("pretzel=1,3,7"), {"r": Interval(Fraction(5, 2))})
    assert facts["r"].integer_hull() == (4, None)
    assert facts["r"].lo_rules == ("seed:r", "R7")


def test_the_hole_reads_a_fractional_upper_end_at_its_floor():
    """r <= 7/2 holds for an integer r exactly when r <= 3, so r != 3 leaves r <= 2."""
    facts = propagate(_tags("pretzel=1,3,7"), {"r": Interval(0, Fraction(7, 2))})
    assert facts["r"].integer_hull() == (2, 2)
    assert facts["r"].hi_rules == ("seed:r", "R7")


def test_theta_curve_rules():
    fs = propagate(_tags("theta_curve", "primitive"), {"beta1": exact(2), "b": exact(2)})
    assert fs["r"].lo == 1 and fs["r"].hi == 2
    assert fs["r"].hi_rules == ("seed:beta1", "R11")
    assert fs["bs"].lo == 2 and fs["bs"].hi == 5
    assert fs["bs"].hi_rules == ("seed:b", "R10")
    assert fs["waist"].hi == Fraction(5, 3)
    assert fs["waist"].integer_hull() == (0, 1)

    # the reverse direction of R10: a string count forces bridges
    lo = propagate(_tags("theta_curve"), {"bs": exact(7)})
    assert lo["b"].lo == 3
    assert lo["b"].lo_rules == ("seed:bs", "R10")


def test_seed_validation():
    with pytest.raises(ValueError, match="^unknown attribute 'girth'$"):
        propagate(_tags(), {"girth": exact(3)})
    # the Interval a seed is refuses a negative end before propagate runs
    with pytest.raises(ValueError, match="must be non-negative"):
        propagate(_tags(), {"b": exact(-1)})
    # rational seeds are allowed; integrality then rejects a half bridge number
    with pytest.raises(Contradiction):
        propagate(_tags(), {"b": exact(Fraction(3, 2))})


@pytest.mark.parametrize("seed", ["1e3", "3", 3.0, 2.5, True, False, Decimal("2.5"), Decimal(3)])
def test_seeds_are_ints_or_fractions(seed):
    """A seed is an Interval, and its ends are exact numbers: no string is
    parsed, no float or Decimal converted, and a bool is not an int."""
    for lo, hi in ((seed, seed), (seed, None), (0, seed)):
        with pytest.raises(ValueError, match="must be ints or Fractions"):
            Interval(lo, hi)


@pytest.mark.parametrize("seed", [3, Fraction(7, 2), "3", (3, 3), None])
def test_a_seed_is_an_interval(seed):
    """propagate reads an Interval per seed and converts nothing else,
    not even an exact number."""
    message = f"seed for 'r' is not an Interval: {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        propagate(_tags(), {"r": seed})


#-- One-sided seeds --#

def test_a_one_sided_seed_raises_only_lower_ends():
    """r >= 3 alone, as a certificate would give it, enters like any fact."""
    fs = propagate(_tags("nontrivial_knot"), {"r": Interval(3)})
    assert fs["r"].lo == 3 and fs["r"].hi is None
    assert fs["r"].lo_rules == ("seed:r",) and fs["r"].hi_rules == ()
    assert fs["b"].lo == 3 and fs["b"].lo_rules == ("seed:r", "R2")
    assert fs["bs"].lo == 6
    assert all(canonical(iv.lo) for iv in fs.values())


def test_schubert_consistency():
    """On the torus knot T(p, q) a certified r >= min(p, q) agrees with R4's
    r = b = min(p, q), and one more than that contradicts it."""
    pairs = 0
    for p in range(2, 41):
        for q in range(p + 1, 41):
            if math.gcd(p, q) != 1:
                continue
            m = min(p, q)
            tags = _tags(f"torus_knot={p},{q}")
            snap = snapshot(propagate(tags, {"r": Interval(m)}))
            assert snap["r"] == snap["b"] == (m, m), (p, q)
            with pytest.raises(Contradiction) as above:
                propagate(tags, {"r": Interval(m + 1)})
            assert {"seed:r", "R4"} <= set(above.value.rules), (p, q)
            pairs += 1
    assert pairs > 400


def test_one_sided_seeds_cut_off_no_feasible_point():
    """Lower bounds alone narrow soundly and confluently: no integer point of
    the enumerated catalog inside the seeds is cut off, a contradiction
    leaves none, and the fixed point does not depend on the rule order."""
    rng = random.Random(20261019)
    contradictions = with_points = 0
    for _ in range(200):
        tags, exact_seeds = _random_subject(rng)
        seeds = {name: Interval(iv.lo) for name, iv in exact_seeds.items()}
        points = feasible_points(tags, seeds, 7)
        reference = _outcome(tags, seeds, RULE_ORDER)
        assert _outcome(tags, seeds, rng.sample(RULE_ORDER, len(RULE_ORDER))) == reference
        if reference == "contradiction":
            assert not points, (tags, seeds, points[:3])
            contradictions += 1
            continue
        for point in points:
            assert all(lo <= v and (hi is None or v <= hi)
                       for (lo, hi), v in zip(map(reference.get, BOUNDS_AXES), point))
        with_points += bool(points)
    assert 0 < contradictions < 100 and with_points > 0


#-- Engine-level properties --#

def _random_subject(rng: random.Random) -> tuple[SubjectTags, dict[str, Interval]]:
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
            name: exact(rng.randrange(0, 13)) for name in ATTRIBUTES if rng.random() < 0.25
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
        with catalog_order(order):
            return snapshot(propagate(tags, seeds))
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
        extra[attr] = exact(lo_int if hi_int is None else rng.randint(lo_int, hi_int))
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
            assert all(contains(fs[axis], v) for axis, v in zip(BOUNDS_AXES, point)), (
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
    fs = propagate(_tags("primitive"), {"r": exact(3)})
    assert fs["beta1"].lo == 3
    assert fs["beta1"].lo_rules == ("seed:r", "R11")


#-- Agreement with the curve families --#

def test_family_values_lie_inside_propagated_intervals():
    for p, q in ((2, 3), (3, 5), (4, 5), (2, 7)):
        inst = torus_knot(p, q)
        fs = propagate(_tags(f"torus_knot={p},{q}"))
        value = representativity_exact(inst.curve).exact
        assert value == min(p, q)
        assert contains(fs["r"], value)
        assert contains(fs["bs"], 2 * value)

    knot_facts = propagate(_tags("nontrivial_knot"))
    for n, g in ((2, 1), (4, 1), (4, 2)):
        rep = representativity_exact(exact_knot(n, g).curve)
        assert rep.exact == n
        assert contains(knot_facts["r"], rep.exact)

    for p, q in ((1, 4), (2, 7)):
        rep = representativity_exact(lpq_link(p, q).curve)
        assert rep.exact == 2 * p
        # the recorded 6p bridge strings bound r through R1, with slack
        fs = propagate(SubjectTags(), {"bs": exact(6 * p)})
        assert contains(fs["r"], rep.exact)
        assert fs["r"].hi == Fraction(6 * p, 2)
        assert rep.exact < fs["r"].hi
