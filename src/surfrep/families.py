"""Reference multicurve families with verifiable counting behavior.

Three parametric constructions cover the standard surfaces: torus
weightings with q meridian and p longitude copies, chain-surface
weightings engineered so that the lower-bound certificate meets the
cheapest reference class at a target value n, and uniform three-sector
chain weightings modeling a two-parameter link family.  Each family
carries closed-form boundary counts for every reference class;
``verify_family`` recomputes counts, smoothed component numbers, and
certified representativity, and returns one ``Check`` per claim.  The
CLI turns the checks into report rows and their verdict.

Only ``surface`` is imported at module top: ``verify_family`` imports
the component counter when it runs, and the certificate only for the
chain families, the ones it certifies.  Building an instance, as
``generate`` does, loads neither, and verifying a torus instance loads
no certificate.
"""

from __future__ import annotations

import math

from surfrep.surface import Check, MultiCurve, _Value, _ascii_int

__all__ = [
    "FamilyInstance",
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

    def __init__(self, kind: str, params: tuple[int, int], curve: MultiCurve) -> None:
        super().__init__(kind, params, curve)

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.params[0]},{self.params[1]}"


def torus_knot(p: int, q: int) -> FamilyInstance:
    """q meridian copies and p longitude copies on the standard torus."""
    if p < 1 or q < 1:
        raise ValueError(f"torus family needs p, q >= 1, got ({p}, {q})")
    return FamilyInstance("torus", (p, q), MultiCurve((q,), (p,)))


def exact_knot(n: int, g: int) -> FamilyInstance:
    """Chain weighting whose certified representativity targets n.

    Meridian weights start at n+1 and n and settle to ceil(n/2) on the
    remaining circles; longitude weights split n as ceil(n/2), floor(n/2)
    and continue with ceil(n/2).  At genus 1 only the leading weights
    survive, and the genus-1 argument in the ``certificate`` module
    docstring shows that both ends of the certified window equal n.
    """
    if n < 2:
        raise ValueError(f"family needs n >= 2, got {n}")
    if g < 1:
        raise ValueError(f"family needs genus >= 1, got {g}")
    c, f = -(-n // 2), n // 2
    # b_i copies of m_i and a_j copies of l_j, as in smoothing
    b = (n + 1, n) + (c,) * (g - 1)
    a = (c, f) + (c,) * (g - 1)
    return FamilyInstance("exactly", (n, g), MultiCurve(b, a))


def lpq_link(p: int, q: int) -> FamilyInstance:
    """Uniform genus-2 chain weighting: q copies per meridian, p per longitude."""
    if p < 1:
        raise ValueError(f"family needs p >= 1, got {p}")
    if q <= 3 * p:
        raise ValueError(f"family needs q > 3p, got q={q} with 3p={3 * p}")
    return FamilyInstance("lpq", (p, q), MultiCurve((q, q, q), (p, p, p)))


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

def claimed_counts(inst: FamilyInstance) -> list[tuple[str, int, int, str]]:
    """Expected boundary count of every reference class, as rows
    ``(family, index, expected, formula)``.

    Every expected count is positive: no instance has a class with
    boundary count 0, so none keeps a copy untouched by smoothing.
    """
    # the parameters are (p, q) for torus and lpq, (n, g) for exactly
    p, q = n, g = inst.params
    if inst.kind == "torus":
        return [("m", 0, p, "p"), ("l", 0, q, "q")]
    if inst.kind == "lpq":
        out = [("m", i, 2 * p, "2*p") for i in range(3)]
        return out + [("l", j, 2 * q, "2*q") for j in range(3)]
    c = -(-n // 2)
    out = [("m", 0, n, "n"), ("m", 1, n, "n")]
    out += [("m", i, 2 * c, "2*ceil(n/2)") for i in range(2, g + 1)]
    # l0 crosses m0 and m_g, which is m1 at genus 1, so l0 then crosses what l1 does
    out.append(("l", 0, 2 * n + 1, "2*n+1") if g == 1 else ("l", 0, n + 1 + c, "n+1+ceil(n/2)"))
    out.append(("l", 1, 2 * n + 1, "2*n+1"))
    if g > 1:
        out.append(("l", 2, n + c, "n+ceil(n/2)"))
    out += [("l", j, 2 * c, "2*ceil(n/2)") for j in range(3, g + 1)]
    return out


#-- Verification --#

def verify_family(inst: FamilyInstance) -> tuple[Check, ...]:
    """Recompute every claimed quantity of the instance and compare."""
    from surfrep.smoothing import trace_components

    curve = inst.curve
    checks = [
        Check(f"count {family}{index} = {formula}", expected, curve.boundary_count(family, index))
        for family, index, expected, formula in claimed_counts(inst)
    ]

    comps = trace_components(curve)
    if inst.kind == "torus":
        p, q = inst.params
        # the cheapest reference class, read off the count rows alone
        cheapest = min(check.actual for check in checks)
        checks.append(Check("smoothed components = gcd(p, q)", math.gcd(p, q), comps))
        checks.append(Check("crossing upper bound = min(p, q)", min(p, q), cheapest))
        return tuple(checks)
    # only the chain families certify, so only they load the certificate
    from surfrep.certificate import representativity_exact

    exact = representativity_exact(curve).exact
    if inst.kind == "exactly":
        n, _ = inst.params
        checks.append(Check("smoothed components", 1, comps))
        checks.append(Check("certified representativity", n, exact))
    else:
        p, _ = inst.params
        checks.append(Check("smoothed components", 1, comps, ">="))
        checks.append(Check("certified representativity = 2p", 2 * p, exact))
        # the family records 6p bridge strings; the certified value must
        # sit strictly below half of that
        checks.append(
            Check(
                "doubled representativity strictly below recorded 6p strings",
                6 * p,
                None if exact is None else 2 * exact,
                "<",
            )
        )
    return tuple(checks)
