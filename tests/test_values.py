"""The value classes behave as frozen records of their declared fields."""

from __future__ import annotations

import importlib
import pkgutil
from fractions import Fraction

import pytest

import surfrep
from surfrep.bounds import Interval, SubjectTags
from surfrep.certificate import Certificate, PieceBounds, Representativity
from surfrep.facewidth import RotationSystem
from surfrep.families import Check, FamilyInstance, FamilyReport
from surfrep.smoothing import PlanarPiece
from surfrep.surface import CurveClass, MultiCurve, SurfaceModel, _Value

TORUS = SurfaceModel("torus", 1)
CURVE = MultiCurve(TORUS, (3,), (5,))
CHECK = Check("smoothed components", 1, 1, True)

#: per class: every field by keyword in declared order, one field changed,
#: and the fields that have defaults with their default values
CASES = [
    (SurfaceModel, {"kind": "chain", "genus": 2}, {"genus": 3}, {}),
    (CurveClass, {"family": "m", "index": 3}, {"index": 4}, {}),
    (MultiCurve, {"surface": TORUS, "meridians": (3,), "longitudes": (5,)},
     {"longitudes": (7,)}, {}),
    (PlanarPiece, {"id": "F1+", "circles": 3, "arcs": ((0, 1, 2), (1, 2, 4))},
     {"id": "F2+"}, {}),
    (PieceBounds, {"piece_id": "F1+", "loop_min": 4, "arc_min": 2}, {"arc_min": None}, {}),
    (Certificate, {"n": 4, "pieces": (PieceBounds("F1+", 4, 2),)}, {"n": 5}, {}),
    (Representativity, {"lower": 3, "upper": 4}, {"upper": 5}, {}),
    (RotationSystem, {"rotations": ((0, 1, 2, 3),), "edges": ((0, 2), (1, 3))},
     {"edges": ((0, 1), (2, 3))}, {}),
    (FamilyInstance, {"kind": "torus", "params": (5, 3), "curve": CURVE, "extrapolated": False},
     {"extrapolated": True}, {"extrapolated": False}),
    (Check, {"name": "smoothed components", "expected": 1, "actual": 1, "passed": True},
     {"passed": False}, {}),
    (FamilyReport, {"family": "torus:5,3", "extrapolated": False, "checks": (CHECK,)},
     {"checks": ()}, {}),
    (Interval, {"lo": Fraction(1), "hi": Fraction(7, 2), "lo_rules": ("seed:r",),
                "hi_rules": ()}, {"hi": None},
     {"lo": Fraction(0), "hi": None, "lo_rules": (), "hi_rules": ()}),
    (SubjectTags, {"names": frozenset({"torus_knot"}), "torus_knot": (2, 3), "pretzel": None},
     {"torus_knot": (2, 5)}, {"names": frozenset(), "torus_knot": None, "pretzel": None}),
]


def test_cases_cover_every_value_class():
    for module in pkgutil.iter_modules(surfrep.__path__):
        importlib.import_module(f"surfrep.{module.name}")
    defined = {cls for cls in _Value.__subclasses__() if cls.__module__.startswith("surfrep.")}
    assert {case[0] for case in CASES} == defined


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


def test_verdicts_derive_from_the_stored_fields():
    assert Representativity(3, 4).exact is None
    assert Representativity(4, 4).exact == 4
    pieces = (PieceBounds("F1+", 4, 2), PieceBounds("F2+", 6, None))
    assert Certificate(4, pieces).lower_ok is True
    assert Certificate(5, pieces).lower_ok is False
    failed = Check("smoothed components", 1, 2, False)
    assert FamilyReport("torus:5,3", False, (CHECK,)).passed is True
    assert FamilyReport("torus:5,3", False, (CHECK, failed)).passed is False
    assert FamilyReport("torus:5,3", False, ()).passed is True
