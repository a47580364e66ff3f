"""Standard surfaces, their reference classes, and multicurves.

A standard surface carries k meridian classes m_0..m_{k-1} and k
longitude classes l_0..l_{k-1}, and k alone names it: k = 1 is the
standard torus, and k >= 2 the chain surface of genus k - 1, the double
of a planar surface with k boundary circles (the doubled circles are
the meridians).  On both, l_j crosses m_{j-1} and m_j (indices mod k)
exactly once each and misses every other meridian; at k = 1 the two are
one class, crossed once.

A multicurve is a nonnegative integer weight per class: b_i parallel
copies of m_i and a_j parallel copies of l_j, arranged so that every
crossing between a longitude copy and a meridian copy is transverse.
Its k weights per family are its surface, which it stores nowhere else;
its JSON form derives the ``"surface"`` object from k.

The module is also the base the others build on: the integer rules, the
value-class base, ``Check``, one computed quantity compared with its
claim, from which the CLI builds its report rows, and ``_cycles``, the
one walk over a permutation's cycles, which traces a map's faces and
the smoothed components alike.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import attrgetter, eq, ge, lt
from typing import Any

__all__ = [
    "MultiCurve",
    "Check",
]


def _strict_int(value: Any, field: str) -> int:
    """``value`` when it is an integer, rejecting floats, bools and strings.

    The one rule for every count, applied by the constructors alone: a
    decoder passes a file's counts on unchecked, so each is checked
    once, and every piece or map a constructor accepts decodes again
    from its ``to_json`` output.
    """
    # bool is a subclass of int, but true is not a count
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _ascii_int(text: str) -> int:
    """``text`` read as an ASCII decimal integer, ``-?[0-9]+``.

    The one rule for every integer typed on the command line: int() also
    reads spaces, a plus sign, underscores and non-ASCII digits, so an
    argument would run as another number than the one a report echoes.
    """
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an ASCII decimal integer")
    return int(text)


def _json_field(obj: Any, field: str, array: bool = False) -> Any:
    """``obj[field]`` of a JSON object, checked to be a JSON array when
    ``array`` is set.

    A decoder checks only the JSON shape: a count or a name is read as
    it stands, and the constructor it goes to checks it, each count with
    :func:`_strict_int`.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object with field {field!r}, got {type(obj).__name__}")
    if field not in obj:
        raise ValueError(f"missing field {field!r}")
    value = obj[field]
    if array and not isinstance(value, list):
        raise ValueError(f"field {field!r} must be an array, got {type(value).__name__}")
    return value


#-- Value classes --#

#: how a value class stores its fields while it is built, past the
#: AttributeError of ``_Value.__setattr__``; unlike a write to
#: ``self.__dict__``, it keeps the fast attribute reads of an instance
#: whose ``__dict__`` was never asked for
_set_field = object.__setattr__


class _Value:
    """Base of the package's immutable value classes.

    A subclass declares its fields as class annotations, in order, and
    its ``__init__`` checks its own arguments and hands the fields to
    the base's ``__init__`` in declared order, which stores each one
    with :data:`_set_field`.  The base adds what a frozen record needs:
    equality and a hash over the declared fields as one tuple (an
    instance of another class is never equal), a ``Name(field=value,
    ...)`` repr, and an AttributeError on assignment or deletion.
    Anything else an instance keeps, such as derived arrays or cached
    properties, takes no part in these.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # a subclass that declares no fields keeps those of its base
        cls._fields = tuple(cls.__dict__.get("__annotations__", cls._fields))
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values: Any) -> None:
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} stores {len(fields)} fields, got {len(values)}")
        for name, value in zip(fields, values):
            _set_field(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


#: the comparison a Check makes, actual against expected
_RELATIONS = {"==": eq, ">=": ge, "<": lt}


class Check(_Value):
    """One computed quantity compared against its claim.

    The check passes when ``actual relation expected`` holds; an
    ``actual`` of None, a quantity that could not be computed, fails.
    How a check is shown in a report is the CLI's business.
    """

    name: str
    expected: Any
    actual: Any
    relation: str

    def __init__(self, name: str, expected: Any, actual: Any, relation: str = "==") -> None:
        if relation not in _RELATIONS:
            raise ValueError(f"relation must be one of {', '.join(_RELATIONS)}, got {relation!r}")
        super().__init__(name, expected, actual, relation)

    @property
    def passed(self) -> bool:
        return self.actual is not None and _RELATIONS[self.relation](self.actual, self.expected)


#-- Permutations --#

def _cycles(perm: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """The cycles of a permutation of 0 .. n-1, and the cycle of each element.

    Each cycle starts at its least element and follows ``perm`` from
    there, the cycles come in ascending order of their starts, and
    ``index[p]`` is the number of p's cycle.  One scan over 0 .. n-1
    walks each cycle from the least element not yet reached; each step
    marks a new element, so every walk ends within n steps.  A walk that
    stops on an element other than its start shows two elements with one
    image, and raises RuntimeError.
    """
    n = len(perm)
    # None marks an element no walk has reached: in the inner loop an
    # `is None` test costs less than a comparison with -1
    index: list[Any] = [None] * n
    cycles: list[list[int]] = []
    for start in range(n):
        if index[start] is not None:
            continue
        k = len(cycles)
        cycle = []
        p = start
        while index[p] is None:
            index[p] = k
            cycle.append(p)
            p = perm[p]
        if p != start:
            raise RuntimeError(f"the cycle from element {start} does not close")
        cycles.append(cycle)
    return cycles, index


#-- Pairing --#

def _crossed(k: int, family: str, index: int) -> tuple[int, ...]:
    """Classes of the other family met by one copy of class ``family`` ``index``,
    in ascending order.

    With k classes per family, m_i meets l_i and l_{i+1} and l_j meets
    m_{j-1} and m_j (indices mod k), once each: the two lists are each
    other's transpose.  When the two coincide, as on the torus (k = 1),
    the one class is listed once.  With at most two classes, any listing
    is their cyclic order along the copy.
    """
    x, y = (index, (index + 1) % k) if family == "m" else ((index - 1) % k, index)
    return (x, y) if x < y else (y, x) if y < x else (x,)


#-- Multicurves --#

class MultiCurve(_Value):
    """Weighted reference curves on a surface.

    ``meridians[i]`` is the number of parallel copies of m_i and
    ``longitudes[j]`` the number of copies of l_j.  The weight count k
    per family names the surface: the torus at k = 1, the chain surface
    of genus k - 1 above.
    """

    meridians: tuple[int, ...]
    longitudes: tuple[int, ...]

    def __init__(self, meridians: Iterable[int], longitudes: Iterable[int]) -> None:
        meridians, longitudes = tuple(meridians), tuple(longitudes)
        if not meridians or len(meridians) != len(longitudes):
            raise ValueError(
                "expected the same positive number of weights per family, got "
                f"{len(meridians)} meridian and {len(longitudes)} longitude"
            )
        for w in (*meridians, *longitudes):
            if _strict_int(w, "weight") < 0:
                raise ValueError(f"weights must be nonnegative integers, got {w!r}")
        if not any((*meridians, *longitudes)):
            raise ValueError("multicurve needs at least one positive weight")
        super().__init__(meridians, longitudes)

    def boundary_count(self, family: str, index: int) -> int:
        """Total crossings of the multicurve with one copy of class
        ``family`` ``index``: m_i for family "m", l_j for family "l".

        A copy of m_i is crossed by every longitude copy whose class
        pairs with m_i, and by no meridian copy; symmetrically for l_j.
        A class with boundary count 0 meets no copy of the multicurve.
        """
        k = len(self.meridians)
        if family not in ("m", "l") or not 0 <= _strict_int(index, "class index") < k:
            raise ValueError(f"no class {family}{index} on a surface with {k} classes per family")
        other = self.longitudes if family == "m" else self.meridians
        return sum(other[x] for x in _crossed(k, family, index))

    def to_json(self) -> dict[str, Any]:
        k = len(self.meridians)
        return {
            "surface": {"kind": "chain" if k > 1 else "torus", "genus": max(k - 1, 1)},
            "meridians": list(self.meridians),
            "longitudes": list(self.longitudes),
        }
