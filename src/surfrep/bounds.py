"""Certified interval propagation for knot and spatial-graph invariants.

Tracks six integer-valued quantities per subject: the representativity r,
the bridge number b, the bridge string number bs, the waist, the first
Betti number beta1 of the underlying graph, and the number of link
components.  Each fact is a closed interval with non-negative exact
endpoints, an integral one stored as an int and any other as a Fraction
in lowest terms; :func:`propagate` narrows the intervals to the fixed
point of a fixed rule catalog, recording for every endpoint the chain of
rules that produced it, and returns one :class:`Interval` per attribute in
``ATTRIBUTES`` order.  Known facts enter as seeds, also Intervals: an
exact value as :func:`seeds_from_strings` reads ``b=4``, [4, 4], or a
one-sided bound such as r >= L, ``Interval(L)``.

Rule catalog, each rule switched on by one tag or always on:

    R1   r <= bs / 2                     always
    R2   2 <= r <= b                     nontrivial knots
    R3   bs = 2 * b                      nontrivial knots
    R4   r = b = min(p, q)               torus_knot(p, q)
    R5   b = 2                           two_bridge (r = 2 by R2)
    R6   r <= 3                          algebraic
    R7   r = 3 iff the parameters are +-(-2, 3, 3) or +-(-2, 3, 5),
         otherwise r != 3                pretzel(p, q, s)
    R8   r = 2                           composite
    R9   r <= 4                          has_conway_sphere
    R10  bs <= 2 * b + 1                 theta_curve
    R11  r <= beta1                      primitive
    R12  waist <= bs / 3                 always
    R13  r >= 1 and b >= 1               always

The table ``_CATALOG`` is this catalog in executable form.  Each rule
there is a list of steps, pins, holes x != v and linear relations
x <= c * y + d, all applied by one step function.  A relation narrows
both ways: y >= (ceil(x.lo) - d) / c raises the lower end of y, and
x <= c * floor(y.hi) + d lowers the upper end of x.  R4 builds its pins
r = b = min(p, q) from the tag's parameters, and R7 the pin r = 3 for
the listed multisets, or else the hole r != 3.

Subjects are assumed non-trivial throughout; trivial knots and graphs
are not valid subjects.  A step that empties an interval, either because
the lower bound exceeds the upper bound or because no integer point
remains, raises :class:`Contradiction` carrying the responsible chain.
Every step narrows through ``_narrow``, the one place that tests an
interval for emptiness and raises it.
Every attribute is integral, so a relation reads the integer endpoints
ceil(x.lo) and floor(y.hi), and it computes in integers from the
numerator n and denominator m of c: y.lo >= (ceil(x.lo) - d) * m / n and
x.hi <= (n * floor(y.hi) + d * m) / m, each an integer division where it
is exact.  Only an end that is not an integer is made a Fraction, so a
stored endpoint is a Fraction only where it is not an integer, and
integer hulls are taken when displaying results.  A rule extends a
chain only for an end that moves; a step that changes nothing builds
nothing.  So an interval is replaced exactly when an end moves, and a
pass that replaces no stored interval ends the run.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping, Sequence

from surfrep.surface import _Value, _ascii_int, _strict_int

__all__ = [
    "ATTRIBUTES",
    "TAG_NAMES",
    "Contradiction",
    "Interval",
    "SubjectTags",
    "propagate",
    "seeds_from_strings",
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


#-- Facts --#

def _exact(q: int | Fraction | None) -> int | Fraction | None:
    """``q`` in canonical form: an int where integral, else the Fraction."""
    return q if q is None or q.denominator != 1 else q.numerator


class Interval(_Value):
    """Closed interval with non-negative exact endpoints.

    Either end is given as an int or a Fraction and stored as an int
    where it is integral, else as a Fraction in lowest terms; this
    constructor is the one place that decides it.  ``hi`` is None when
    the attribute is unbounded above.  The rule chains record which
    rules justified each endpoint, seed facts appearing as
    ``seed:<attribute>``.
    """

    lo: int | Fraction
    hi: int | Fraction | None
    lo_rules: tuple[str, ...]
    hi_rules: tuple[str, ...]

    def __init__(
        self,
        lo: int | Fraction = 0,
        hi: int | Fraction | None = None,
        lo_rules: tuple[str, ...] = (),
        hi_rules: tuple[str, ...] = (),
    ) -> None:
        # a float endpoint is inexact, and by type() a bool is not an int
        if type(lo) not in (int, Fraction) or (hi is not None and type(hi) not in (int, Fraction)):
            raise ValueError(f"interval endpoints must be ints or Fractions, got {lo!r}, {hi!r}")
        if lo < 0:
            raise ValueError("interval endpoints must be non-negative")
        if hi is not None and hi < lo:
            raise ValueError("interval is empty")
        super().__init__(_exact(lo), _exact(hi), lo_rules, hi_rules)

    def integer_hull(self) -> tuple[int, int | None]:
        """Tightest integer endpoints; the display form for integral attributes."""
        return math.ceil(self.lo), None if self.hi is None else math.floor(self.hi)


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
        unknown = names - TAG_NAMES
        if unknown:
            raise ValueError(f"unknown tags: {sorted(unknown)}")
        if ("torus_knot" in names) != (torus_knot is not None):
            raise ValueError("torus_knot requires parameters p,q and no other tag does")
        if ("pretzel" in names) != (pretzel is not None):
            raise ValueError("pretzel requires three strand parameters")
        for name, values in (("torus_knot", torus_knot), ("pretzel", pretzel)):
            if values is not None:
                if len(values) != _PARAM_ARITY[name]:
                    raise ValueError(f"{name} takes exactly {_PARAM_ARITY[name]} parameters")
                for value in values:
                    _strict_int(value, f"{name} parameter")
        if torus_knot is not None:
            p, q = torus_knot
            # the curve is a nontrivial knot only for coprime p, q >= 2
            if p < 2 or q < 2 or math.gcd(p, q) != 1:
                raise ValueError("torus_knot parameters must be coprime and at least 2")
        # P(p, q, s) has one component per even parameter, and one with
        # none: it is a knot only when at most one parameter is even
        if pretzel is not None and sum(x % 2 == 0 for x in pretzel) > 1:
            raise ValueError("pretzel parameters with two or more even numbers give a link")
        # With an entry in {-1, 0, 1}, P(p, q, s) is a 2-bridge knot, or for
        # an entry 0 a sum of two, of determinant |pq + qs + sp|; by Schubert's
        # classification of 2-bridge knots it is trivial exactly when that is
        # 1.  With all |entries| >= 2 its bridge number is 3 (Boileau and
        # Zieschang 1985), so it is never trivial, though P(-2, 3, 5) has
        # determinant 1.
        if pretzel is not None and min(map(abs, pretzel)) <= 1:
            p, q, s = pretzel
            if abs(p * q + q * s + s * p) == 1:
                raise ValueError("pretzel parameters with an entry in {-1, 0, 1} "
                                 "and determinant 1 give the unknot")
        if "theta_curve" in names and names & _KNOT_TAGS:
            raise ValueError("theta_curve is incompatible with knot tags")
        super().__init__(names, torus_knot, pretzel)

    @property
    def effective(self) -> frozenset[str]:
        """Tag closure: any knot-only tag implies nontrivial_knot."""
        if self.names & _KNOT_TAGS:
            return self.names | {"nontrivial_knot"}
        return self.names

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "SubjectTags":
        """Parse flags of the form ``name`` or ``name=p,q``, with p and q
        ASCII decimal integers and spaces allowed around ``=``; the
        constructor checks the number of parameters."""
        params: dict[str, tuple[int, ...] | None] = {}
        form = "tag {!r} must look like two_bridge or torus_knot=3,5"
        for name, raw in _split(items, form, "duplicate tag {!r}"):
            params[name] = None
            if name in _PARAM_ARITY:
                if raw is None:
                    raise ValueError(f"tag {name!r} needs parameters, e.g. {name}=3,5")
                try:
                    params[name] = tuple(map(_ascii_int, raw.strip().split(",")))
                except ValueError:
                    raise ValueError(f"parameters of {name!r} must be integers") from None
            elif raw is not None:
                raise ValueError(f"tag {name!r} takes no parameters")
        return cls(frozenset(params), params.get("torus_knot"),  # type: ignore[arg-type]
                   params.get("pretzel"))  # type: ignore[arg-type]

    def labels(self) -> tuple[str, ...]:
        """Canonical string form, one entry per tag, sorted by name."""
        out = []
        for name in sorted(self.names):
            values = getattr(self, name) if name in _PARAM_ARITY else None
            out.append(name if values is None else name + "=" + ",".join(map(str, values)))
        return tuple(out)


def _split(
    items: Iterable[str], form: str, duplicate: str, valued: bool = False
) -> Iterator[tuple[str, str | None]]:
    """Each flag ``name=value`` as (name, value), split at the first '='
    with the name stripped, value None without one.  An empty name, or no
    value when ``valued``, raises ``form``; a repeated name ``duplicate``."""
    seen: set[str] = set()
    for item in items:
        name, eq, raw = item.partition("=")
        name = name.strip()
        if not name or (valued and not eq):
            raise ValueError(form.format(item))
        if name in seen:
            raise ValueError(duplicate.format(name))
        seen.add(name)
        yield name, raw if eq else None


def seeds_from_strings(items: Iterable[str]) -> dict[str, Interval]:
    """Parse seeds ``name=p`` or ``name=p/q``, with p and q ASCII decimal
    integers, q unsigned and spaces allowed around ``=``, each as the
    exact interval [p/q, p/q]; the constructor checks the sign and stores
    an integral value such as ``12/2`` as the int 6."""
    seeds: dict[str, Interval] = {}
    form = "seed {!r} must look like b=3 or bs=7/2"
    for name, raw in _split(items, form, "duplicate seed for {!r}", valued=True):
        p, slash, q = raw.strip().partition("/")  # type: ignore[union-attr]
        try:
            # a sign belongs on p alone, as Fraction() has it
            if q.startswith("-"):
                raise ValueError
            value = Fraction(_ascii_int(p), _ascii_int(q) if slash else 1)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"seed value {raw!r} is not a rational number") from None
        try:
            seeds[name] = Interval(value, value)
        except ValueError as exc:
            raise ValueError(f"seed for {name!r}: {exc}") from None
    return seeds


class Contradiction(Exception):
    """An interval became empty during propagation.

    ``rules``, derived from ``lo_rules`` and ``hi_rules``, is the
    deduplicated union of the lower and upper chains of the offending
    attribute, in derivation order.  ``lo`` and ``hi`` are stored as an
    :class:`Interval` stores its ends: an int where integral.
    """

    def __init__(
        self,
        attribute: str,
        lo: int | Fraction,
        hi: int | Fraction,
        lo_rules: tuple[str, ...],
        hi_rules: tuple[str, ...],
    ) -> None:
        self.attribute = attribute
        self.lo = _exact(lo)
        self.hi = _exact(hi)
        self.lo_rules = lo_rules
        self.hi_rules = hi_rules
        reason = "no integer point" if lo <= hi else "lower bound exceeds upper bound"
        chain = " -> ".join(self.rules) or "start"
        super().__init__(f"{attribute} in [{lo}, {hi}] is impossible ({reason}); via {chain}")

    @property
    def rules(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys((*self.lo_rules, *self.hi_rules)))


#-- Propagation --#

def _narrow(
    f: dict[str, Interval], name: str, lo: int | Fraction | None, hi: int | Fraction | None,
    lo_rules: tuple[str, ...], hi_rules: tuple[str, ...], rule: str,
) -> None:
    """Narrow ``f[name]`` to [lo, hi] by ``rule``.

    ``lo_rules`` and ``hi_rules`` are the chains the new ends derive
    from: an end that moves takes its chain extended by ``rule``.  An end
    that is None, or that would not tighten, keeps its value and its
    chain, and builds none; when neither end moves, ``f[name]`` stays
    the stored object itself.  This is the one test for emptiness: the
    attribute is integral, so the interval is empty also when no integer
    fits.
    """
    iv = f[name]
    if lo is None or lo <= iv.lo:
        lo, lo_rules = iv.lo, iv.lo_rules
    else:
        lo_rules = _chain(lo_rules, rule)
    if hi is None or iv.hi is not None and hi >= iv.hi:
        hi, hi_rules = iv.hi, iv.hi_rules
    else:
        hi_rules = _chain(hi_rules, rule)
    # an end that did not move is the stored object itself
    if lo is iv.lo and hi is iv.hi:
        return
    if hi is not None and math.ceil(lo) > math.floor(hi):
        raise Contradiction(name, lo, hi, lo_rules, hi_rules)
    f[name] = Interval(lo, hi, lo_rules, hi_rules)


def _chain(source: tuple[str, ...], rule: str) -> tuple[str, ...]:
    return source if source and source[-1] == rule else (*source, rule)


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)

#: the start of every attribute, [0, inf) with empty chains; an Interval
#: is immutable, so every run shares it
_UNKNOWN = Interval()

#: rule id -> (tag that switches it on, None for always; steps).  A step
#: is a pin ``(x, lo, hi)``, a None end left open, a hole ``(x, v)``, or a
#: relation ``(x, c, y, d)`` meaning x <= c * y + d; R4 and R7 hold a
#: builder that makes their steps from the tag's parameters.
_CATALOG: dict[str, tuple[str | None, Any]] = {
    "R1": (None, [("r", _HALF, "bs", 0)]),
    "R2": ("nontrivial_knot", [("r", 2, None), ("r", 1, "b", 0)]),
    "R3": ("nontrivial_knot", [("b", _HALF, "bs", 0), ("bs", 2, "b", 0)]),
    "R4": ("torus_knot", lambda p: [(x, min(p), min(p)) for x in ("r", "b")]),
    "R5": ("two_bridge", [("b", 2, 2)]),
    "R6": ("algebraic", [("r", None, 3)]),
    "R7": ("pretzel", lambda p: [("r", 3, 3) if tuple(sorted(p)) in _PRETZEL_THREE else ("r", 3)]),
    "R8": ("composite", [("r", 2, 2)]),
    "R9": ("has_conway_sphere", [("r", None, 4)]),
    "R10": ("theta_curve", [("bs", 2, "b", 1)]),
    "R11": ("primitive", [("r", 1, "beta1", 0)]),
    "R12": (None, [("waist", _THIRD, "bs", 0)]),
    "R13": (None, [("r", 1, None), ("b", 1, None)]),
}


def _steps(rule: str, tags: SubjectTags) -> Sequence[tuple]:
    """The steps of ``rule``, built from the tag's parameters for R4 and R7."""
    tag, steps = _CATALOG[rule]
    return steps(getattr(tags, tag)) if callable(steps) else steps


def _apply(rule: str, steps: Sequence[tuple], f: dict[str, Interval]) -> None:
    """One application of the steps of ``rule``.

    Every step narrows through ``_narrow``.  A pin narrows both ends in
    one call.  A hole x != v moves an endpoint only when its integer end
    is v, floor(hi) = v or ceil(lo) = v: the upper end first, then the
    lower, both found at v in the interval as read, so a hole at the
    point v reports [v, v - 1].  A relation x <= c * y + d narrows both
    ways, one call each: first y.lo up to (ceil(x.lo) - d) / c, then,
    when y has an upper end, x.hi down to c * floor(y.hi) + d.  The
    rounding is sound because every attribute is integral, and it makes
    a chain of relations see parity: bs = 2b with b > 9/2 gives bs >= 10.
    """
    for step in steps:
        if len(step) == 2:
            # interval arithmetic cannot see interior threes; lowering hi
            # leaves lo and its chain as read here
            x, v = step
            iv = f[x]
            if iv.hi is not None and math.floor(iv.hi) == v:
                _narrow(f, x, None, v - 1, (), iv.hi_rules, rule)
            if math.ceil(iv.lo) == v:
                _narrow(f, x, v + 1, None, iv.lo_rules, (), rule)
        elif len(step) == 3:
            x, lo, hi = step
            _narrow(f, x, lo, hi, (), (), rule)
        else:
            x, c, y, d = step
            # raising y.lo leaves y.hi and its chain as read here
            n, m = c.numerator, c.denominator
            xi, yi = f[x], f[y]
            lo = (math.ceil(xi.lo) - d) * m
            lo = lo // n if lo % n == 0 else Fraction(lo, n)
            _narrow(f, y, lo, None, xi.lo_rules, (), rule)
            if yi.hi is not None:
                hi = n * math.floor(yi.hi) + d * m
                hi = hi // m if hi % m == 0 else Fraction(hi, m)
                _narrow(f, x, None, hi, (), yi.hi_rules, rule)


def propagate(
    tags: SubjectTags, seeds: Mapping[str, Interval] | None = None
) -> dict[str, Interval]:
    """Narrow the attribute intervals to the fixed point of the rule catalog.

    Returns one interval per attribute, keyed in ``ATTRIBUTES`` order.
    ``seeds`` maps attribute names to known facts, each an
    :class:`Interval`: an exact value v as ``Interval(v, v)``, a lower
    bound L alone as ``Interval(L)``.  A seed enters as a pin with the
    chain ``seed:<name>``.  Each pass applies the active rules in
    ``_CATALOG``'s order, and the run ends after a pass that leaves every
    stored interval the object it was.  That order decides only which
    chain gets recorded when several rules justify the same endpoint; the
    interval values of the fixed point do not depend on it, and the tests
    permute it.  Raises :class:`Contradiction` when the facts are
    inconsistent.
    """
    facts = dict.fromkeys(ATTRIBUTES, _UNKNOWN)
    for name, seed in (seeds or {}).items():
        if name not in facts:
            raise ValueError(f"unknown attribute {name!r}")
        if not isinstance(seed, Interval):
            raise ValueError(f"seed for {name!r} is not an Interval: {seed!r}")
        _apply(f"seed:{name}", [(name, seed.lo, seed.hi)], facts)
    on = tags.effective | {None}
    active = [(rule, _steps(rule, tags)) for rule, (tag, _) in _CATALOG.items() if tag in on]
    for _ in range(64):
        before = tuple(facts.values())
        for rule, steps in active:
            _apply(rule, steps, facts)
        if all(map(operator.is_, before, facts.values())):
            return facts
    raise RuntimeError("propagation failed to stabilise")
