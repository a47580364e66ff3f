"""Smoothing and cutting operations on weighted multicurves.

Every crossing between a longitude copy and a meridian copy is resolved
in the way compatible with the strand orientations, turning the weighted
multicurve into a disjoint union of embedded closed curves.  The number
of resulting components is the number of orbits of the reconnection map.

A crossing is identified by (j, c, i, d): copy c of longitude class l_j
meets copy d of meridian class m_i.  Copies are numbered from 1 and sit
in parallel, so along any single copy the crossings with another class
appear consecutively in copy order.  With a_j copies of l_j and b_i of
m_i, the crossings of l_j with m_i form the block 1..a_j x 1..b_i.

A smoothed curve arriving at a crossing along a longitude leaves along
the meridian to the next crossing on that meridian copy, then along the
longitude to the next crossing on that longitude copy.  Write G for
this return map on crossings (longitude step after meridian step); G is
a bijection, and its orbits are the smoothed components that meet any
crossing.  Inside a block, when c < a_j and d < b_i, the meridian step
moves to copy c+1 of the same block and the longitude step to copy d+1,
so G is the diagonal step (c, d) -> (c+1, d+1).  Hence a crossing with
c > 1 and d > 1 has the unique preimage (c-1, d-1), and following an
orbit backwards along the diagonal always reaches an *entry*, a
crossing with c = 1 or d = 1.  Every orbit therefore contains an entry,
and ``trace_orbits`` walks the first-return map of G on entries: a run
of diagonal steps taken at once, then one step that wraps to the next
class with copies.  A block holds a_j + b_i - 1 entries, so the walk is
linear in the weights rather than in the crossing count.

Cutting the chain surface along one full reference family is the other
operation provided here: it splits the surface into two mirror planar
pieces and turns the surviving curve copies into weighted arc systems
on their boundary circles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from surfrep.surface import MultiCurve, SurfaceModel, _json_field

__all__ = ["PlanarPiece", "cut_pieces", "trace_components", "trace_orbits"]

Crossing = tuple[int, int, int, int]


def _longitude_classes(surface: SurfaceModel, j: int) -> tuple[int, ...]:
    """Meridian classes met by l_j, in traversal order along the curve."""
    if surface.kind == "torus":
        return (0,)
    g = surface.genus
    return (0, g) if j == 0 else (j - 1, j)


def _meridian_classes(surface: SurfaceModel, i: int) -> tuple[int, ...]:
    """Longitude classes met by m_i, in traversal order along the curve."""
    if surface.kind == "torus":
        return (0,)
    g = surface.genus
    return (g, 0) if i == g else (i, i + 1)


def _next_with_copies(
    classes: tuple[int, ...], weights: tuple[int, ...]
) -> dict[int, int]:
    """Cyclic successor among ``classes`` that carry at least one copy."""
    live = [x for x in classes if weights[x]]
    return {x: live[(t + 1) % len(live)] for t, x in enumerate(live)}


def trace_orbits(mc: MultiCurve) -> list[list[Crossing]]:
    """Orbits of the smoothing reconnection map, one per closed walk.

    Each orbit is listed by its entry crossings (j, c, i, d), those with
    c = 1 or d = 1, in walking order.  Inside the block of l_j and m_i
    the return map G sends (c, d) to (c+1, d+1) while c < a_j and
    d < b_i, and that diagonal predecessor is the only preimage of a
    crossing with c > 1 and d > 1; so walking an orbit backwards always
    reaches an entry, and the orbits of G correspond one to one to the
    orbits of its first return to the entries.  From an entry the walk
    takes t = min(a_j - c, b_i - d) diagonal steps at once, covering
    t + 1 crossings, and then one step of G that leaves the block: the
    meridian step wraps to copy 1 of the next longitude class with
    copies along m_i when c = a_j, and the longitude step to copy 1 of
    the next meridian class with copies along l_j when d = b_i.  The
    result has c = 1 or d = 1, so it is again an entry, and the diagonal
    runs of all entries tile the crossings exactly once.  Copies that
    meet no crossings at all are handled by trace_components.
    """
    surface = mc.surface
    a, b = mc.longitudes, mc.meridians
    k = surface.num_classes
    # along m_i after l_j, and along l_j after m_i
    next_long = {i: _next_with_copies(_meridian_classes(surface, i), a) for i in range(k)}
    next_mer = {j: _next_with_copies(_longitude_classes(surface, j), b) for j in range(k)}

    def first_return(x: Crossing) -> Crossing:
        j, c, i, d = x
        t = min(a[j] - c, b[i] - d)
        c, d = c + t, d + t
        if c < a[j]:
            c += 1
        else:
            j, c = next_long[i][j], 1
        if d < b[i]:
            d += 1
        else:
            i, d = next_mer[j][i], 1
        return j, c, i, d

    seen: set[Crossing] = set()
    orbits: list[list[Crossing]] = []
    for j in range(k):
        if not a[j]:
            continue
        for i in next_mer[j]:  # the meridian classes with copies that l_j meets
            entries = [(j, 1, i, d) for d in range(1, b[i] + 1)]
            entries += [(j, c, i, 1) for c in range(2, a[j] + 1)]
            for start in entries:
                if start in seen:
                    continue
                orbit = [start]
                x = first_return(start)
                while x != start:
                    orbit.append(x)
                    x = first_return(x)
                seen.update(orbit)
                orbits.append(orbit)
    return orbits


def trace_components(mc: MultiCurve) -> int:
    """Number of closed components of the coherently smoothed multicurve.

    Each orbit of the reconnection map is one component.  A copy whose
    crossing classes all have weight 0 meets no crossing: it survives
    smoothing untouched and counts one component.
    """
    surface = mc.surface
    a, b = mc.longitudes, mc.meridians
    k = surface.num_classes
    untouched = sum(
        a[j] for j in range(k) if not any(b[i] for i in _longitude_classes(surface, j))
    )
    untouched += sum(
        b[i] for i in range(k) if not any(a[j] for j in _meridian_classes(surface, i))
    )
    return len(trace_orbits(mc)) + untouched


#-- Cutting --#

@dataclass(frozen=True)
class PlanarPiece:
    """A planar surface with numbered boundary circles and weighted arcs.

    ``arcs`` holds (a, b, mult) triples with a < b: mult parallel arcs
    joining circle a to circle b.  Pairs are unique and sorted.
    """

    id: str
    circles: int
    arcs: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.circles < 2:
            raise ValueError(f"piece needs at least two boundary circles, got {self.circles}")
        object.__setattr__(self, "arcs", tuple(tuple(t) for t in self.arcs))
        seen = set()
        for a, b, mult in self.arcs:
            if not (0 <= a < b < self.circles):
                raise ValueError(f"bad arc endpoints ({a}, {b}) for {self.circles} circles")
            if mult < 1:
                raise ValueError(f"arc multiplicity must be >= 1, got {mult}")
            if (a, b) in seen:
                raise ValueError(f"duplicate arc pair ({a}, {b})")
            seen.add((a, b))
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs)))

    def to_json(self) -> dict[str, Any]:
        return {
            "piece": self.id,
            "circles": self.circles,
            "arcs": [{"a": a, "b": b, "mult": m} for a, b, m in self.arcs],
        }

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "PlanarPiece":
        """Decode a piece, rejecting floats, bools and strings where counts belong."""
        return PlanarPiece(
            _json_field(obj, "piece", str),
            _json_field(obj, "circles", int),
            tuple(
                (_json_field(e, "a", int), _json_field(e, "b", int), _json_field(e, "mult", int))
                for e in _json_field(obj, "arcs", list)
            ),
        )


def cut_pieces(mc: MultiCurve, along: str) -> PlanarPiece:
    """Cut the chain surface along one reference family.

    ``along`` is "meridians" (piece F1+) or "longitudes" (F2+).  Cutting
    along the meridians turns each longitude copy into an arc joining
    the circles of the two meridian classes it crossed, and
    symmetrically for the other direction.  The mirror piece F1- (or
    F2-) carries the same arcs, so it is not returned.
    """
    if mc.surface.kind != "chain":
        raise ValueError("cutting along a full reference family needs the chain surface")
    k = mc.surface.num_classes
    mults: dict[tuple[int, int], int] = {}
    if along == "meridians":
        label = "F1+"
        for j, w in enumerate(mc.longitudes):
            if w:
                u, v = (j - 1) % k, j
                key = (min(u, v), max(u, v))
                mults[key] = mults.get(key, 0) + w
    elif along == "longitudes":
        label = "F2+"
        for i, w in enumerate(mc.meridians):
            if w:
                u, v = i, (i + 1) % k
                key = (min(u, v), max(u, v))
                mults[key] = mults.get(key, 0) + w
    else:
        raise ValueError(f"along must be 'meridians' or 'longitudes', got {along!r}")
    arcs = tuple((a, b, m) for (a, b), m in sorted(mults.items()))
    return PlanarPiece(label, k, arcs)
