"""Smoothing and cutting operations on weighted multicurves.

Every crossing between a longitude copy and a meridian copy is resolved
in the way compatible with the strand orientations, turning the weighted
multicurve into a disjoint union of embedded closed curves.  The number
of resulting components is computed by walking the reconnection map.

A crossing is identified by (j, c, i, d): copy c of longitude class l_j
meets copy d of meridian class m_i.  Copies are numbered from 1 and sit
in parallel, so along any single copy the crossings with another class
appear consecutively in copy order.

Cutting the chain surface along one full reference family is the other
operation provided here: it splits the surface into two mirror planar
pieces and turns the surviving curve copies into weighted arc systems
on their boundary circles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from surfrep.surface import MultiCurve, SurfaceModel, _json_int

__all__ = ["PlanarPiece", "cut_pieces", "trace_components", "trace_orbits"]

Crossing = tuple[int, int, int, int]
State = tuple[Crossing, str]  # second entry: family of the arriving strand


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


def _crossings_along_longitude(mc: MultiCurve, j: int, c: int) -> list[Crossing]:
    return [
        (j, c, i, d)
        for i in _longitude_classes(mc.surface, j)
        for d in range(1, mc.meridians[i] + 1)
    ]


def _crossings_along_meridian(mc: MultiCurve, i: int, d: int) -> list[Crossing]:
    return [
        (j, c, i, d)
        for j in _meridian_classes(mc.surface, i)
        for c in range(1, mc.longitudes[j] + 1)
    ]


def _cyclic_next(seq: list[Crossing]) -> dict[Crossing, Crossing]:
    return {x: seq[(t + 1) % len(seq)] for t, x in enumerate(seq)}


def trace_orbits(mc: MultiCurve) -> list[list[State]]:
    """Orbits of the smoothing reconnection map, one per closed walk.

    A state (x, "l") records arrival at crossing x along a longitude
    strand; the smoothed curve then leaves along the meridian strand and
    runs to the next crossing on that meridian copy, arriving there in
    state (y, "m").  Copies that meet no crossings at all contribute no
    states and are handled separately by trace_components.
    """
    surface = mc.surface
    k = surface.num_classes

    next_on_longitude: dict[Crossing, Crossing] = {}
    for j in range(k):
        for c in range(1, mc.longitudes[j] + 1):
            seq = _crossings_along_longitude(mc, j, c)
            if seq:
                next_on_longitude.update(_cyclic_next(seq))

    next_on_meridian: dict[Crossing, Crossing] = {}
    for i in range(k):
        for d in range(1, mc.meridians[i] + 1):
            seq = _crossings_along_meridian(mc, i, d)
            if seq:
                next_on_meridian.update(_cyclic_next(seq))

    def successor(state: State) -> State:
        x, fam = state
        if fam == "l":
            return next_on_meridian[x], "m"
        return next_on_longitude[x], "l"

    states: list[State] = [(x, fam) for x in next_on_longitude for fam in ("l", "m")]
    seen: set[State] = set()
    orbits: list[list[State]] = []
    for start in states:
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        cur = successor(start)
        while cur != start:
            orbit.append(cur)
            seen.add(cur)
            cur = successor(cur)
        orbits.append(orbit)
    return orbits


def trace_components(mc: MultiCurve) -> int:
    """Number of closed components of the coherently smoothed multicurve.

    Each orbit of the reconnection map is one component; copies whose
    crossing list is empty survive smoothing untouched and count one
    component each.
    """
    untouched = 0
    k = mc.surface.num_classes
    for j in range(k):
        if not _crossings_along_longitude(mc, j, 1):
            untouched += mc.longitudes[j]
    for i in range(k):
        if not _crossings_along_meridian(mc, i, 1):
            untouched += mc.meridians[i]
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

    def multiplicity(self, a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        for u, v, mult in self.arcs:
            if (u, v) == key:
                return mult
        return 0

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
            str(obj["piece"]),
            _json_int(obj["circles"], "circles"),
            tuple(
                (_json_int(e["a"], "a"), _json_int(e["b"], "b"), _json_int(e["mult"], "mult"))
                for e in obj["arcs"]
            ),
        )


def cut_pieces(mc: MultiCurve, along: str) -> tuple[PlanarPiece, PlanarPiece]:
    """Cut the chain surface along one reference family.

    ``along`` is "meridians" (pieces F1+/F1-) or "longitudes" (F2+/F2-).
    Cutting along the meridians turns each longitude copy into an arc
    joining the circles of the two meridian classes it crossed, and
    symmetrically for the other direction.  The two returned pieces are
    mirror copies carrying identical arc systems.
    """
    if mc.surface.kind != "chain":
        raise ValueError("cutting along a full reference family needs the chain surface")
    k = mc.surface.num_classes
    mults: dict[tuple[int, int], int] = {}
    if along == "meridians":
        labels = ("F1+", "F1-")
        for j, w in enumerate(mc.longitudes):
            if w:
                u, v = (j - 1) % k, j
                key = (min(u, v), max(u, v))
                mults[key] = mults.get(key, 0) + w
    elif along == "longitudes":
        labels = ("F2+", "F2-")
        for i, w in enumerate(mc.meridians):
            if w:
                u, v = i, (i + 1) % k
                key = (min(u, v), max(u, v))
                mults[key] = mults.get(key, 0) + w
    else:
        raise ValueError(f"along must be 'meridians' or 'longitudes', got {along!r}")
    arcs = tuple((a, b, m) for (a, b), m in sorted(mults.items()))
    return (
        PlanarPiece(labels[0], k, arcs),
        PlanarPiece(labels[1], k, arcs),
    )
