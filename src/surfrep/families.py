"""Reference multicurve families with verifiable counting behavior.

Three parametric constructions cover the standard surfaces: torus
weightings with q meridian and p longitude copies, chain-surface
weightings engineered so that the lower-bound certificate meets the
cheapest reference class at a target value n, and uniform three-sector
chain weightings modeling a two-parameter link family.  Each family
carries closed-form boundary counts for every reference class;
``verify_family`` recomputes counts, smoothed component numbers, and
certified representativity, reporting one named comparison per claim.
"""

from __future__ import annotations

import math
from typing import Any

from surfrep.certificate import representativity_exact, upper_bound
from surfrep.smoothing import trace_components
from surfrep.surface import CurveClass, MultiCurve, SurfaceModel, _Value, _ascii_int, _set_field

__all__ = [
    "FamilyInstance",
    "Check",
    "FamilyReport",
    "torus_knot",
    "exact_knot",
    "lpq_link",
    "parse_family",
    "claimed_counts",
    "verify_family",
]


class FamilyInstance(_Value):
    """A named multicurve drawn from one of the parametric families."""

    kind: str
    params: tuple[int, int]
    curve: MultiCurve
    extrapolated: bool

    def __init__(
        self, kind: str, params: tuple[int, int], curve: MultiCurve, extrapolated: bool = False
    ) -> None:
        _set_field(self, "kind", kind)
        _set_field(self, "params", params)
        _set_field(self, "curve", curve)
        _set_field(self, "extrapolated", extrapolated)

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.params[0]},{self.params[1]}"


def torus_knot(p: int, q: int) -> FamilyInstance:
    """q meridian copies and p longitude copies on the standard torus."""
    if p < 1 or q < 1:
        raise ValueError(f"torus family needs p, q >= 1, got ({p}, {q})")
    return FamilyInstance("torus", (p, q), MultiCurve(SurfaceModel.torus(), (q,), (p,)))


def exact_knot(n: int, g: int) -> FamilyInstance:
    """Chain weighting whose certified representativity targets n.

    Meridian weights start at n+1 and n and settle to ceil(n/2) on the
    remaining circles; longitude weights split n as ceil(n/2), floor(n/2)
    and continue with ceil(n/2).  At genus 1 only the leading weights
    survive and the construction is an extrapolation, which the returned
    instance flags.
    """
    if n < 2:
        raise ValueError(f"family needs n >= 2, got {n}")
    if g < 1:
        raise ValueError(f"family needs genus >= 1, got {g}")
    c, f = -(-n // 2), n // 2
    # b_i copies of m_i and a_j copies of l_j, as in smoothing
    b = (n + 1, n) + (c,) * (g - 1)
    a = (c, f) + (c,) * (g - 1)
    curve = MultiCurve(SurfaceModel.chain(g), b, a)
    return FamilyInstance("exactly", (n, g), curve, extrapolated=(g == 1))


def lpq_link(p: int, q: int) -> FamilyInstance:
    """Uniform genus-2 chain weighting: q copies per meridian, p per longitude."""
    if p < 1:
        raise ValueError(f"family needs p >= 1, got {p}")
    if q <= 3 * p:
        raise ValueError(f"family needs q > 3p, got q={q} with 3p={3 * p}")
    return FamilyInstance(
        "lpq", (p, q), MultiCurve(SurfaceModel.chain(2), (q, q, q), (p, p, p))
    )


_BUILDERS = {"torus": torus_knot, "exactly": exact_knot, "lpq": lpq_link}


def parse_family(text: str) -> FamilyInstance:
    """Build a family instance from a compact ``kind:x,y`` description,
    with x and y written as ASCII decimal integers."""
    kind, sep, rest = text.partition(":")
    if not sep or kind not in _BUILDERS:
        raise ValueError(
            f"unknown family {text!r}; expected kind:x,y with kind torus, exactly, or lpq"
        )
    parts = rest.split(",")
    if len(parts) != 2:
        raise ValueError(f"family {text!r} needs exactly two parameters")
    # a minus sign still reaches the builders' own range messages
    try:
        x, y = map(_ascii_int, parts)
    except ValueError:
        raise ValueError(f"family {text!r} needs integer parameters") from None
    return _BUILDERS[kind](x, y)


#-- Claimed counts --#

def claimed_counts(inst: FamilyInstance) -> list[tuple[CurveClass, int, str]]:
    """Expected boundary count for every reference class, with its formula."""
    # the parameters are (p, q) for torus and lpq, (n, g) for exactly
    p, q = n, g = inst.params
    if inst.kind == "torus":
        return [(CurveClass("m", 0), p, "p"), (CurveClass("l", 0), q, "q")]
    if inst.kind == "lpq":
        out = [(CurveClass("m", i), 2 * p, "2*p") for i in range(3)]
        out += [(CurveClass("l", j), 2 * q, "2*q") for j in range(3)]
        return out
    c = -(-n // 2)
    out = [(CurveClass("m", 0), n, "n"), (CurveClass("m", 1), n, "n")]
    out += [(CurveClass("m", i), 2 * c, "2*ceil(n/2)") for i in range(2, g + 1)]
    if g == 1:
        # merged weights: both longitude classes cross everything
        out += [
            (CurveClass("l", 0), 2 * n + 1, "2*n+1"),
            (CurveClass("l", 1), 2 * n + 1, "2*n+1"),
        ]
        return out
    out += [
        (CurveClass("l", 0), n + 1 + c, "n+1+ceil(n/2)"),
        (CurveClass("l", 1), 2 * n + 1, "2*n+1"),
        (CurveClass("l", 2), n + c, "n+ceil(n/2)"),
    ]
    out += [(CurveClass("l", j), 2 * c, "2*ceil(n/2)") for j in range(3, g + 1)]
    return out


#-- Verification --#

class Check(_Value):
    """One recomputed quantity compared against its claim."""

    name: str
    expected: Any
    actual: Any
    passed: bool

    def __init__(self, name: str, expected: Any, actual: Any, passed: bool) -> None:
        _set_field(self, "name", name)
        _set_field(self, "expected", expected)
        _set_field(self, "actual", actual)
        _set_field(self, "passed", passed)

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


class FamilyReport(_Value):
    """Every check of one family instance, and whether all of them passed."""

    family: str
    extrapolated: bool
    checks: tuple[Check, ...]

    def __init__(self, family: str, extrapolated: bool, checks: tuple[Check, ...]) -> None:
        _set_field(self, "family", family)
        _set_field(self, "extrapolated", extrapolated)
        _set_field(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_family(inst: FamilyInstance) -> FamilyReport:
    """Recompute every claimed quantity of the instance and compare."""
    curve = inst.curve
    checks: list[Check] = []
    for cls, expected, formula in claimed_counts(inst):
        actual = curve.boundary_count(cls)
        checks.append(Check(f"count {cls} = {formula}", expected, actual, actual == expected))

    comps = trace_components(curve)
    if inst.kind == "torus":
        p, q = inst.params
        want = math.gcd(p, q)
        checks.append(
            Check("smoothed components = gcd(p, q)", want, comps, comps == want)
        )
        upper = upper_bound(curve)
        checks.append(
            Check("crossing upper bound = min(p, q)", min(p, q), upper, upper == min(p, q))
        )
    elif inst.kind == "exactly":
        n, _ = inst.params
        checks.append(Check("smoothed components", 1, comps, comps == 1))
        rep = representativity_exact(curve)
        checks.append(
            Check("certified representativity", n, rep.exact, rep.exact == n)
        )
    else:
        p, _ = inst.params
        checks.append(Check("smoothed components", ">= 1", comps, comps >= 1))
        rep = representativity_exact(curve)
        checks.append(
            Check("certified representativity = 2p", 2 * p, rep.exact, rep.exact == 2 * p)
        )
        # the family records 6p bridge strings; the certified value must
        # sit strictly below half of that
        doubled = None if rep.exact is None else 2 * rep.exact
        checks.append(
            Check(
                "doubled representativity strictly below recorded 6p strings",
                f"< {6 * p}",
                doubled,
                doubled is not None and doubled < 6 * p,
            )
        )
    return FamilyReport(inst.label, inst.extrapolated, tuple(checks))
