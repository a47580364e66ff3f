"""The value classes behave as frozen records of their declared fields."""

from __future__ import annotations

import importlib
import pkgutil
from fractions import Fraction

import pytest

import surfrep
from surfrep.bounds import Interval, SubjectTags
from surfrep.certificate import PieceBounds, PlanarPiece, Representativity
from surfrep.cli import _row
from surfrep.facewidth import RotationSystem
from surfrep.families import FamilyInstance
from surfrep.surface import Check, MultiCurve, _Value

CURVE = MultiCurve((3,), (5,))

#: per class: every field by keyword in declared order, one field changed,
#: and the fields that have defaults with their default values
CASES = [
    (MultiCurve, {"meridians": (3,), "longitudes": (5,)}, {"longitudes": (7,)}, {}),
    (PlanarPiece, {"id": "F1+", "circles": 3, "arcs": ((0, 1, 2), (1, 2, 4))},
     {"id": "F2+"}, {}),
    (PieceBounds, {"piece_id": "F1+", "loop_min": 4, "arc_min": 2}, {"arc_min": None}, {}),
    (Representativity, {"lower": 3, "upper": 4}, {"upper": 5}, {}),
    (RotationSystem, {"rotations": ((0, 1, 2, 3),), "edges": ((0, 2), (1, 3))},
     {"edges": ((0, 1), (2, 3))}, {}),
    (FamilyInstance, {"kind": "torus", "params": (5, 3), "curve": CURVE}, {"params": (3, 5)}, {}),
    (Check, {"name": "smoothed components", "expected": 1, "actual": 1, "relation": ">="},
     {"relation": "=="}, {"relation": "=="}),
    (Interval, {"lo": 1, "hi": Fraction(7, 2), "lo_rules": ("seed:r",), "hi_rules": ()},
     {"hi": None}, {"lo": 0, "hi": None, "lo_rules": (), "hi_rules": ()}),
    (SubjectTags, {"names": frozenset({"torus_knot"}), "torus_knot": (2, 3), "pretzel": None},
     {"torus_knot": (2, 5)}, {"names": frozenset(), "torus_knot": None, "pretzel": None}),
]


def test_cases_cover_every_value_class():
    for module in pkgutil.iter_modules(surfrep.__path__):
        importlib.import_module(f"surfrep.{module.name}")
    defined = {cls for cls in _Value.__subclasses__() if cls.__module__.startswith("surfrep.")}
    assert {case[0] for case in CASES} == defined
    assert len(CASES) == 9


@pytest.mark.parametrize(
    "cls, fields, changed, defaults", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_value_class_behaves_as_a_frozen_record(cls, fields, changed, defaults):
    value = cls(**fields)
    same = cls(*fields.values())
    # equality and hash by fields
    assert value == same and not value != same
    assert value != cls(**{**fields, **changed})
    assert hash(value) == hash(same)
    assert len({value, same}) == 1
    # an instance of another class with the same values is never equal
    twin = type("Twin", (cls,), {})(**fields)
    assert value.__eq__(twin) is NotImplemented
    assert value != twin and twin != value
    assert value != tuple(fields.values())

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same
    if cls is RotationSystem:
        # cached derived structure takes no part in equality or hash
        assert value.faces and value.genus() == 1
        assert value == same and hash(value) == hash(same)

    shown = ", ".join(f"{name}={v!r}" for name, v in fields.items())
    assert repr(value) == f"{cls.__name__}({shown})"

    # the fields with defaults may be left out
    required = {name: v for name, v in fields.items() if name not in defaults}
    assert cls(**required) == cls(**required, **defaults)


def test_the_base_stores_the_fields_in_declared_order():
    """A class hands its values to the base in declared order, and the base
    stores each one; a count other than the number of declared fields is a
    TypeError that names the class."""

    class Pair(_Value):
        a: int
        b: str

    pair = Pair(1, "x")
    assert (pair.a, pair.b) == (1, "x")
    assert repr(pair) == "Pair(a=1, b='x')"
    assert pair == Pair(1, "x") and pair != Pair(1, "y")
    for values in ((1,), (1, "x", None), ()):
        with pytest.raises(TypeError, match="^Pair stores 2 fields"):
            Pair(*values)


def test_verdicts_derive_from_the_stored_fields():
    assert Representativity(3, 4).exact is None
    assert Representativity(4, 4).exact == 4
    assert Check("smoothed components", 1, 1).passed is True
    assert Check("smoothed components", 1, 2).passed is False
    assert Check("smoothed components", 1, 2, ">=").passed is True
    assert Check("smoothed components", 1, 0, ">=").passed is False
    assert Check("doubled", 12, 8, "<").passed is True
    assert Check("doubled", 12, 12, "<").passed is False
    # nothing recomputed fails under every relation
    for relation in ("==", ">=", "<"):
        assert Check("doubled", 12, None, relation).passed is False
    # the verdict is not a field: a stored one is refused, not believed
    with pytest.raises(ValueError, match="relation"):
        Check("smoothed components", 1, 2, True)
    for relation in ("=", "<=", ">", "!=", "", None):
        with pytest.raises(ValueError, match="relation"):
            Check("smoothed components", 1, 2, relation)


def test_a_window_refuses_ends_out_of_order_or_below_zero():
    """A certified window reads both ends as integers and refuses a negative
    lower end or a lower end above the upper one, naming the fault."""
    assert Representativity(0, 0).exact == 0
    for lower, upper in ((-1, 3), (-2, -1)):
        with pytest.raises(ValueError, match=rf"^lower end {lower} is negative$"):
            Representativity(lower, upper)
    for lower, upper in ((5, 4), (0, -1)):
        with pytest.raises(ValueError, match=rf"^lower end {lower} is above upper end {upper}$"):
            Representativity(lower, upper)
    for lower, upper, name in ((2.0, 3, "lower end"), (True, 3, "lower end"),
                               (2, "3", "upper end"), (2, 3.5, "upper end")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            Representativity(lower, upper)


def test_check_shows_its_relation_in_the_expected_value():
    """A check's report row, built by the CLI: ``==`` shows the bare claim;
    any other relation prefixes it, as the reports print ``>= 4`` and ``< 12``."""
    assert _row(Check("count m0 = n", 4, 4)) == {
        "name": "count m0 = n", "expected": 4, "actual": 4, "pass": True}
    assert _row(Check("F1+ loop minimum", 4, 3, ">="))["expected"] == ">= 4"
    assert _row(Check("smoothed components", 1, 2, ">="))["expected"] == ">= 1"
    shown = _row(Check("doubled", 12, None, "<"))
    assert (shown["expected"], shown["actual"], shown["pass"]) == ("< 12", None, False)
