"""Certified interval propagation for knot and spatial-graph invariants.

Tracks six integer-valued quantities per subject: the representativity r,
the bridge number b, the bridge string number bs, the waist, the first
Betti number beta1 of the underlying graph, and the number of link
components.  Each fact is a closed interval with non-negative rational
endpoints; :func:`propagate` narrows the intervals to the fixed point of
a fixed rule catalog, recording for every endpoint the chain of rules
that produced it, and returns one :class:`Interval` per attribute in
``ATTRIBUTES`` order.

Rule catalog, each rule switched on by one tag or always on:

    R1   r <= bs / 2                     always
    R2   2 <= r <= b                     nontrivial knots
    R3   bs = 2 * b                      nontrivial knots
    R4   r = b = min(p, q)               torus_knot(p, q)
    R5   r = 2 and b = 2                 two_bridge
    R6   r <= 3                          algebraic
    R7   r = 3 iff the parameters are +-(-2, 3, 3) or +-(-2, 3, 5),
         otherwise r != 3                pretzel(p, q, s)
    R8   r = 2                           composite
    R9   r <= 4                          has_conway_sphere
    R10  bs <= 2 * b + 1                 theta_curve
    R11  r <= beta1                      primitive
    R12  waist <= bs / 3                 always
    R13  r >= 1                          always

The table ``_CATALOG`` is this catalog in executable form.  Each rule
there is a list of constant pins and linear relations x <= c * y + d,
and one step function applies every relation in both directions:
y >= (ceil(x.lo) - d) / c raises the lower end of y, and
x <= c * floor(y.hi) + d lowers the upper end of x.  Only two rules are
functions of their own: R4, whose value comes from the tag's
parameters, and R7, which excludes the single value 3 by shaving
interval endpoints.

Subjects are assumed non-trivial throughout; trivial knots and graphs
are not valid subjects.  A step that empties an interval, either because
the lower bound exceeds the upper bound or because no integer point
remains, raises :class:`Contradiction` carrying the responsible chain.
Every attribute is integral, so a relation reads the integer endpoints
ceil(x.lo) and floor(y.hi); the stored endpoints stay rational, and
integer hulls are taken when displaying results.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

from surfrep.surface import _Value, _ascii_int, _set_field

__all__ = [
    "ATTRIBUTES",
    "RULE_ORDER",
    "TAG_NAMES",
    "Contradiction",
    "Interval",
    "SubjectTags",
    "betti1",
    "propagate",
]

#: quantities the engine reasons about; all of them are integer valued
ATTRIBUTES = ("r", "b", "bs", "waist", "beta1", "components")

#: tags that can only describe a nontrivial knot
_KNOT_TAGS = frozenset(
    {
        "nontrivial_knot",
        "torus_knot",
        "two_bridge",
        "algebraic",
        "pretzel",
        "composite",
        "has_conway_sphere",
    }
)

TAG_NAMES = _KNOT_TAGS | {"theta_curve", "primitive", "spatial_graph"}

_PARAM_ARITY = {"torus_knot": 2, "pretzel": 3}

#: pretzel parameter multisets whose representativity is exactly 3
_PRETZEL_THREE = frozenset(
    tuple(sorted(sign * x for x in base))
    for base in ((-2, 3, 3), (-2, 3, 5))
    for sign in (1, -1)
)


def betti1(vertices: int, edges: int, components: int) -> int:
    """First Betti number E - V + C of a graph with the given counts."""
    if vertices < 1:
        raise ValueError("graph needs at least one vertex")
    if edges < 0:
        raise ValueError("edge count cannot be negative")
    if not 1 <= components <= vertices:
        raise ValueError("component count must lie between 1 and the vertex count")
    # each edge merges at most two components
    if components < vertices - edges:
        raise ValueError("too few edges for that component count")
    return edges - vertices + components


#-- Facts --#

#: the endpoint types an Interval takes, compared by type() so that bool is not an int
_EXACT = (int, Fraction)


class Interval(_Value):
    """Closed interval with non-negative exact endpoints, ints or Fractions.

    ``hi`` is None when the attribute is unbounded above.  The rule
    chains record which rules justified each endpoint, seed facts
    appearing as ``seed:<attribute>``.
    """

    lo: Fraction
    hi: Fraction | None
    lo_rules: tuple[str, ...]
    hi_rules: tuple[str, ...]

    def __init__(
        self,
        lo: Fraction = Fraction(0),
        hi: Fraction | None = None,
        lo_rules: tuple[str, ...] = (),
        hi_rules: tuple[str, ...] = (),
    ) -> None:
        # a float endpoint is inexact and a bool is not a number
        if type(lo) not in _EXACT or (hi is not None and type(hi) not in _EXACT):
            raise ValueError(f"interval endpoints must be ints or Fractions, got {lo!r}, {hi!r}")
        if lo < 0:
            raise ValueError("interval endpoints must be non-negative")
        if hi is not None and hi < lo:
            raise ValueError("interval is empty")
        _set_field(self, "lo", lo)
        _set_field(self, "hi", hi)
        _set_field(self, "lo_rules", lo_rules)
        _set_field(self, "hi_rules", hi_rules)

    def contains(self, value: int | Fraction) -> bool:
        return self.lo <= value and (self.hi is None or value <= self.hi)

    def integer_hull(self) -> tuple[int, int | None]:
        """Tightest integer endpoints; the display form for integral attributes."""
        return math.ceil(self.lo), None if self.hi is None else math.floor(self.hi)

    def to_json(self) -> dict[str, Any]:
        return {
            "lo": str(self.lo),
            "hi": None if self.hi is None else str(self.hi),
            "lo_rules": list(self.lo_rules),
            "hi_rules": list(self.hi_rules),
        }


class SubjectTags(_Value):
    """Validated set of descriptive flags, with parameters where required."""

    names: frozenset[str]
    torus_knot: tuple[int, int] | None
    pretzel: tuple[int, int, int] | None

    def __init__(
        self,
        names: frozenset[str] = frozenset(),
        torus_knot: tuple[int, int] | None = None,
        pretzel: tuple[int, int, int] | None = None,
    ) -> None:
        _set_field(self, "names", names)
        _set_field(self, "torus_knot", torus_knot)
        _set_field(self, "pretzel", pretzel)
        unknown = names - TAG_NAMES
        if unknown:
            raise ValueError(f"unknown tags: {sorted(unknown)}")
        if ("torus_knot" in names) != (torus_knot is not None):
            raise ValueError("torus_knot requires parameters p,q and no other tag does")
        if ("pretzel" in names) != (pretzel is not None):
            raise ValueError("pretzel requires three strand parameters")
        for name, arity in _PARAM_ARITY.items():
            values = getattr(self, name)
            if values is not None and len(values) != arity:
                raise ValueError(f"{name} takes exactly {arity} parameters")
        if torus_knot is not None:
            p, q = torus_knot
            # the curve is a nontrivial knot only for coprime p, q >= 2
            if p < 2 or q < 2 or math.gcd(p, q) != 1:
                raise ValueError("torus_knot parameters must be coprime and at least 2")
        if "theta_curve" in names and names & _KNOT_TAGS:
            raise ValueError("theta_curve is incompatible with knot tags")

    @property
    def effective(self) -> frozenset[str]:
        """Tag closure: any knot-only tag implies nontrivial_knot."""
        if self.names & _KNOT_TAGS:
            return self.names | {"nontrivial_knot"}
        return self.names

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "SubjectTags":
        """Parse flags of the form ``name`` or ``name=p,q``, with p and q
        ASCII decimal integers and spaces allowed around ``=``."""
        names: set[str] = set()
        params: dict[str, tuple[int, ...]] = {}
        for item in items:
            name, eq, raw = item.partition("=")
            name = name.strip()
            if name in names:
                raise ValueError(f"duplicate tag {name!r}")
            names.add(name)
            if name in _PARAM_ARITY:
                if not eq:
                    raise ValueError(f"tag {name!r} needs parameters, e.g. {name}=3,5")
                try:
                    values = tuple(map(_ascii_int, raw.strip().split(",")))
                except ValueError:
                    raise ValueError(f"parameters of {name!r} must be integers") from None
                if len(values) != _PARAM_ARITY[name]:
                    raise ValueError(
                        f"tag {name!r} takes {_PARAM_ARITY[name]} parameters"
                    )
                params[name] = values
            elif eq:
                raise ValueError(f"tag {name!r} takes no parameters")
        return cls(
            frozenset(names),
            params.get("torus_knot"),  # type: ignore[arg-type]
            params.get("pretzel"),  # type: ignore[arg-type]
        )

    def labels(self) -> tuple[str, ...]:
        """Canonical string form, one entry per tag, sorted by name."""
        out = []
        for name in sorted(self.names):
            values = getattr(self, name) if name in _PARAM_ARITY else None
            out.append(name if values is None else name + "=" + ",".join(map(str, values)))
        return tuple(out)


class Contradiction(Exception):
    """An interval became empty during propagation.

    ``rules`` is the deduplicated union of the lower and upper chains of
    the offending attribute, in derivation order.
    """

    def __init__(
        self,
        attribute: str,
        lo: Fraction,
        hi: Fraction,
        lo_rules: tuple[str, ...],
        hi_rules: tuple[str, ...],
    ) -> None:
        self.attribute = attribute
        self.lo = lo
        self.hi = hi
        self.lo_rules = lo_rules
        self.hi_rules = hi_rules
        self.rules = tuple(dict.fromkeys((*lo_rules, *hi_rules)))
        reason = "no integer point" if lo <= hi else "lower bound exceeds upper bound"
        chain = " -> ".join(self.rules) if self.rules else "start"
        super().__init__(f"{attribute} in [{lo}, {hi}] is impossible ({reason}); via {chain}")


#-- Propagation --#

def _raise_lo(f: dict[str, Interval], name: str, value: Fraction, rules: tuple[str, ...]) -> bool:
    """Raise the lower end of ``f[name]`` to ``value``; True when it moved."""
    iv = f[name]
    if value <= iv.lo:
        return False
    # integral attribute: empty also when no integer fits
    if iv.hi is not None and math.ceil(value) > math.floor(iv.hi):
        raise Contradiction(name, value, iv.hi, rules, iv.hi_rules)
    f[name] = Interval(value, iv.hi, rules, iv.hi_rules)
    return True


def _lower_hi(f: dict[str, Interval], name: str, value: Fraction, rules: tuple[str, ...]) -> bool:
    """Lower the upper end of ``f[name]`` to ``value``; True when it moved."""
    iv = f[name]
    if iv.hi is not None and value >= iv.hi:
        return False
    if math.ceil(iv.lo) > math.floor(value):
        raise Contradiction(name, iv.lo, value, iv.lo_rules, rules)
    f[name] = Interval(iv.lo, value, iv.lo_rules, rules)
    return True


def _chain(source: tuple[str, ...], rule: str) -> tuple[str, ...]:
    return source if source and source[-1] == rule else (*source, rule)


def _ceil(q: Fraction) -> Fraction:
    return q if q.denominator == 1 else Fraction(math.ceil(q))


def _floor(q: Fraction) -> Fraction:
    return q if q.denominator == 1 else Fraction(math.floor(q))


def _r4(f: dict[str, Interval], tags: SubjectTags) -> bool:
    m = Fraction(min(tags.torus_knot))  # type: ignore[arg-type]
    changed = False
    for name in ("r", "b"):
        changed |= _raise_lo(f, name, m, ("R4",))
        changed |= _lower_hi(f, name, m, ("R4",))
    return changed


def _r7(f: dict[str, Interval], tags: SubjectTags) -> bool:
    r = f["r"]
    three = Fraction(3)
    if tuple(sorted(tags.pretzel)) in _PRETZEL_THREE:  # type: ignore[arg-type]
        return _raise_lo(f, "r", three, ("R7",)) | _lower_hi(f, "r", three, ("R7",))
    # outside the listed pairs only r != 3 is known: shave endpoints at 3,
    # leaving interior threes alone (interval arithmetic cannot see them);
    # lowering hi leaves lo and its chain as read here
    changed = False
    if r.hi == three:
        changed = _lower_hi(f, "r", Fraction(2), _chain(r.hi_rules, "R7"))
    if r.lo == three:
        changed |= _raise_lo(f, "r", Fraction(4), _chain(r.lo_rules, "R7"))
    return changed


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)

#: rule id -> (tag that switches it on, None for always; steps).  A step
#: is a pin ``(x, lo, hi)``, a None end left open, or a relation
#: ``(x, c, y, d)`` meaning x <= c * y + d; R4 and R7 are functions.
_CATALOG: dict[str, tuple[str | None, Any]] = {
    "R1": (None, [("r", _HALF, "bs", 0)]),
    "R2": ("nontrivial_knot", [("r", 2, None), ("r", 1, "b", 0)]),
    "R3": ("nontrivial_knot", [("b", _HALF, "bs", 0), ("bs", 2, "b", 0)]),
    "R4": ("torus_knot", _r4),
    "R5": ("two_bridge", [("r", 2, 2), ("b", 2, 2)]),
    "R6": ("algebraic", [("r", None, 3)]),
    "R7": ("pretzel", _r7),
    "R8": ("composite", [("r", 2, 2)]),
    "R9": ("has_conway_sphere", [("r", None, 4)]),
    "R10": ("theta_curve", [("bs", 2, "b", 1)]),
    "R11": ("primitive", [("r", 1, "beta1", 0)]),
    "R12": (None, [("waist", _THIRD, "bs", 0)]),
    "R13": (None, [("r", 1, None)]),
}

RULE_ORDER = tuple(_CATALOG)


def _apply(rule: str, f: dict[str, Interval], tags: SubjectTags) -> bool:
    """One application of ``rule``; True when it narrowed an interval.

    A relation x <= c * y + d narrows both ways: first y.lo up to
    (ceil(x.lo) - d) / c, then x.hi down to c * floor(y.hi) + d.  The
    rounding is sound because every attribute is integral, and it makes
    a chain of relations see parity: bs = 2b with b > 9/2 gives bs >= 10.
    """
    steps = _CATALOG[rule][1]
    if callable(steps):
        return steps(f, tags)
    changed = False
    for step in steps:
        if len(step) == 3:
            x, lo, hi = step
            if lo is not None:
                changed |= _raise_lo(f, x, Fraction(lo), (rule,))
            if hi is not None:
                changed |= _lower_hi(f, x, Fraction(hi), (rule,))
            continue
        x, c, y, d = step
        # raising y.lo leaves y.hi and its chain as read here
        xi, yi = f[x], f[y]
        # a unit coefficient or a zero offset skips its Fraction operation
        lo = _ceil(xi.lo)
        lo = lo - d if d else lo
        changed |= _raise_lo(f, y, lo if c == 1 else lo / c, _chain(xi.lo_rules, rule))
        if yi.hi is not None:
            hi = _floor(yi.hi)
            hi = hi if c == 1 else c * hi
            changed |= _lower_hi(f, x, hi + d if d else hi, _chain(yi.hi_rules, rule))
    return changed


def propagate(
    tags: SubjectTags,
    seeds: Mapping[str, int | Fraction] | None = None,
    *,
    rule_order: Sequence[str] = RULE_ORDER,
) -> dict[str, Interval]:
    """Narrow the attribute intervals to the fixed point of the rule catalog.

    Returns one interval per attribute, keyed in ``ATTRIBUTES`` order.
    ``seeds`` maps attribute names to known exact values.  ``rule_order``
    affects only which chain gets recorded when several rules justify the
    same endpoint; the interval values of the fixed point do not depend
    on it.  Raises :class:`Contradiction` when the facts are inconsistent.
    """
    if sorted(rule_order) != sorted(RULE_ORDER):
        raise ValueError("rule_order must be a permutation of the rule ids")
    facts = {name: Interval() for name in ATTRIBUTES}
    for name, value in (seeds or {}).items():
        if name not in facts:
            raise ValueError(f"unknown attribute {name!r}")
        if isinstance(value, (float, bool)):
            raise ValueError("seed values must be integers or exact rationals")
        exact = Fraction(value)
        if exact < 0:
            raise ValueError(f"seed for {name!r} must be non-negative")
        rules = (f"seed:{name}",)
        _raise_lo(facts, name, exact, rules)
        _lower_hi(facts, name, exact, rules)
    on = tags.effective | {None}
    active = [rule for rule in rule_order if _CATALOG[rule][0] in on]
    changed = True
    passes = 0
    while changed:
        changed = False
        for rule in active:
            changed |= _apply(rule, facts, tags)
        passes += 1
        if passes > 64:
            raise RuntimeError("propagation failed to stabilise")
    return facts
