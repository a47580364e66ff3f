"""Lower-bound certificates from cut-open planar pieces.

Cutting the chain surface along all meridians (or all longitudes) yields
two mirror copies of a planar surface with one boundary circle per cut
class.  The multicurve falls apart into arc classes: each surviving
curve class leaves parallel arcs joining the two boundary circles it
crossed.  Every compressing disk of an embedded surface meets such a
piece in essential loops and essential arcs, so exact minimum crossing
numbers for those give a lower bound on how often any compressing disk
boundary must cross the multicurve:

* every essential loop in every piece crosses >= n arcs, and
* every essential arc in every piece crosses >= n/2 arcs

together certify that no disk boundary meets the multicurve fewer than
n times.  The same pieces give the upper end: the loop that attains a
piece's loop minimum bounds a compressing disk, so the least loop
minimum over both cuts bounds the representativity from above, and the
two ends often pin it exactly.

Pieces here are necklace-shaped: boundary circles sit in a cyclic order
and every arc class joins two cyclically adjacent circles, so a piece is
a cycle of k sector weights.  The piece constructor refuses any other
arc, and both minima have closed forms in those weights, proved in the
docstring of :func:`evaluate_piece`; no drawing is ever constructed.

Why a loop minimum is an upper end.  Take the chain surface of genus
g as F = boundary(P x I), with P a planar surface with k = g + 1
boundary circles c_0..c_{k-1} in a plane of the 3-sphere: the meridian
m_i is c_i x {1/2} on the wall c_i x I, and the longitude l_j is the
boundary of alpha_j x I, where the necklace arcs alpha_j in P join c_{j-1}
to c_j.  Both sides of F are handlebodies, so F is a Heegaard surface.

* Cut along the meridians, the piece is P x {1} with the upper half of
  each wall.  A loop there that splits the circles into two nonempty
  groups bounds a flat disk in the plane of P x {1}; lifted just above
  the slab, its interior lies outside P x I.
* Cut along the longitudes, P falls into two disks D along the
  necklace arcs, and the piece is the sphere boundary(D x I) minus the
  k disks alpha_j x I.  A loop in it bounds a disk in the ball D x I,
  inside P x I.
* Such a loop is essential in F: each side of it in the piece holds a
  cut circle, and the mirror piece joins the two sides, so the loop
  does not separate F and bounds no disk there.  The disk is therefore
  a compressing disk.
* Every crossing of the multicurve lies on a copy of the cut family,
  in a collar of the cut circles, so smoothing changes the multicurve
  only there.  A loop kept off the collars meets it in the arcs alone,
  as many times as the loop minimum counts, so r(F) <= loop minimum
  holds for the multicurve as smoothed.
* A loop around one circle is parallel to that circle's class and
  crosses the two sectors touching it, the class's boundary count.
  So a loop minimum is never above the cheapest class of its family.

Why genus 1 is exact.  The torus is the genus-1 chain surface: a curve
with one weight per family is read at k = 2 with the second class of
each family empty, so the torus is cut along two parallel meridians or
along two parallel longitudes, and both pieces are annuli.  At k = 2, P
is an annulus and F = boundary(P x I) is the standard torus, which
bounds a solid torus on each side.  Up to isotopy its compressing disks
are the meridian disks of those two solid tori, and their boundaries
are parallel to a meridian or to a longitude.  The multicurve as
smoothed is homologous to the sum of its copies, all oriented alike, so
a curve parallel to a meridian crosses it at least as often as there
are longitude copies, and symmetrically.  A piece with two circles has
no essential arc, and its loop minimum is its one merged sector, that
same count.  So both ends of :func:`representativity_exact` equal r(F):
min(p, q) on the torus with q meridian and p longitude copies, and n on
``exactly:n,1``.  At genus >= 2 not every compressing disk is parallel
to a reference class, and whether the lower end is r(F) stays open.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from surfrep.surface import (
    Check,
    MultiCurve,
    _crossed,
    _json_field,
    _strict_int,
    _Value,
)

__all__ = [
    "PlanarPiece",
    "pieces_from_json",
    "cut_pieces",
    "PieceBounds",
    "Representativity",
    "evaluate_piece",
    "certify_pieces",
    "representativity_exact",
]


#-- Cut pieces --#

class PlanarPiece(_Value):
    """A necklace: a planar surface with ``circles`` boundary circles in
    cyclic order and weighted arcs between cyclically adjacent circles.

    ``arcs`` holds (a, b, mult) triples with a < b and b - a = 1 or
    circles - 1: mult parallel arcs joining circle a to circle b.  Pairs
    are unique and sorted.  The constructor checks each field in reading
    order and names the first fault, so every piece that can be built is
    one :func:`evaluate_piece` can read.
    """

    id: str
    circles: int
    arcs: tuple[tuple[int, int, int], ...]

    def __init__(self, id: str, circles: int, arcs: Iterable[Iterable[int]]) -> None:
        if not isinstance(id, str):
            raise ValueError(f"piece id must be a string, got {type(id).__name__}")
        if _strict_int(circles, "circles") < 2:
            raise ValueError(f"piece needs at least two boundary circles, got {circles}")
        arcs = tuple(tuple(t) for t in arcs)
        seen = set()
        for a, b, mult in arcs:
            if not (0 <= _strict_int(a, "a") < _strict_int(b, "b") < circles):
                raise ValueError(f"bad arc endpoints ({a}, {b}) for {circles} circles")
            if b - a != 1 and b - a != circles - 1:
                raise ValueError(
                    f"arc pair ({a}, {b}) is not cyclically adjacent among {circles} circles"
                )
            if _strict_int(mult, "mult") < 1:
                raise ValueError(f"arc multiplicity must be >= 1, got {mult}")
            if (a, b) in seen:
                raise ValueError(f"duplicate arc pair ({a}, {b})")
            seen.add((a, b))
        super().__init__(id, circles, tuple(sorted(arcs)))

    def to_json(self) -> dict[str, Any]:
        return {
            "piece": self.id,
            "circles": self.circles,
            "arcs": [{"a": a, "b": b, "mult": m} for a, b, m in self.arcs],
        }

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "PlanarPiece":
        """Decode a piece's JSON shape; the constructor checks the id and
        every count."""
        return PlanarPiece(
            _json_field(obj, "piece"),
            _json_field(obj, "circles"),
            tuple(
                (_json_field(e, "a"), _json_field(e, "b"), _json_field(e, "mult"))
                for e in _json_field(obj, "arcs", array=True)
            ),
        )


def pieces_from_json(obj: Any) -> tuple[list[PlanarPiece], int | None]:
    """Decode a piece file, a list of pieces or ``{"pieces": [...], "n": k}``,
    into the pieces in file order and the stored level k, None without one."""
    if isinstance(obj, dict):
        items, n = obj.get("pieces"), obj.get("n")
    else:
        items, n = obj, None
    if not isinstance(items, list):
        raise ValueError("piece file must hold a list of pieces")
    pieces = [PlanarPiece.from_json(item) for item in items]
    return pieces, None if n is None else _strict_int(n, "stored n")


def cut_pieces(mc: MultiCurve) -> tuple[PlanarPiece, PlanarPiece]:
    """Cut the chain surface along each reference family: the pair (F1+, F2+).

    Cutting along the meridians (F1+) turns each longitude copy into an
    arc joining the circles of the two meridian classes it crossed, and
    cutting along the longitudes (F2+) does the same for the meridian
    copies.  Each mirror piece, F1- or F2-, carries the same arcs, so it
    is not returned.  One weight per family is the torus, cut as the
    genus-1 chain surface whose second class in each family is empty:
    both pieces are annuli (module docstring).
    """
    k = max(len(mc.meridians), 2)
    pieces = []
    for label, family, weights in (("F1+", "l", mc.longitudes), ("F2+", "m", mc.meridians)):
        mults: dict[tuple[int, ...], int] = {}
        for x, w in enumerate(weights):
            if w:
                key = _crossed(k, family, x)
                mults[key] = mults.get(key, 0) + w
        pieces.append(PlanarPiece(label, k, (pair + (m,) for pair, m in mults.items())))
    return pieces[0], pieces[1]


#-- Certificates --#

class PieceBounds(_Value):
    """Exact loop and arc minima for one piece (None: no arc candidates)."""

    piece_id: str
    loop_min: int
    arc_min: int | None

    def __init__(self, piece_id: str, loop_min: int, arc_min: int | None) -> None:
        super().__init__(piece_id, loop_min, arc_min)

    def conditions(self) -> list[tuple[str, int]]:
        """The (name, value) pairs that are all >= n when the piece certifies
        level n: the loop minimum, and twice the arc minimum if there is one."""
        out = [("loop minimum", self.loop_min)]
        if self.arc_min is not None:
            out.append(("doubled arc minimum", 2 * self.arc_min))
        return out

    @property
    def score(self) -> int:
        """Largest level n the piece certifies: the least of its conditions."""
        return min(value for _, value in self.conditions())


class Representativity(_Value):
    """Certified range: lower <= representativity <= upper."""

    lower: int
    upper: int

    def __init__(self, lower: int, upper: int) -> None:
        if _strict_int(lower, "lower end") < 0 or lower > _strict_int(upper, "upper end"):
            fault = "is negative" if lower < 0 else f"is above upper end {upper}"
            raise ValueError(f"lower end {lower} {fault}")
        super().__init__(lower, upper)

    @property
    def exact(self) -> int | None:
        """The representativity when the bounds meet, else None."""
        return self.upper if self.lower == self.upper else None


def evaluate_piece(piece: PlanarPiece) -> PieceBounds:
    """Loop minimum and the minimum over all base circles of arc minima.

    Both come from one read of the sector weights, sector u joining
    circle u to u+1 mod k.  Each arc pair fills one sector with its
    multiplicity and the other sectors weigh 0.  At most two of those
    empty sectors can be among the two lightest, so memory follows the
    arcs, not k.  With two circles both sectors join the same pair: its
    merged multiplicity fills one and the other is empty.

    Loops.  A loop is essential when it separates the boundary circles
    into two nonempty groups.  Isotoped tight, it crosses exactly the
    arcs of the sectors whose two circles it separates.  The sectors
    form a cycle through all k circles (at k = 2, the merged pair and an
    empty sector), and a split of a cycle's vertices into two nonempty
    groups cuts an even number of its edges, so at least two.  Any two
    sectors u < v are cut alone by the split {u+1, ..., v} against the
    rest.  The loop minimum is therefore the sum of the two lightest
    sector weights.

    Arcs.  An essential arc starts and ends on a base circle c and,
    together with part of c, encloses at least one other circle on each
    side, so the other k-1 circles split into two nonempty groups; below
    three circles no such arc exists and the result is None.  The
    sectors c-1 and c touching c cost nothing: the arc ends can be
    placed so that every arc end of those two sectors lies on the same
    side as its far circle.  The remaining k-2 sectors form a path
    through the other circles, so the split cuts at least one of them,
    and cutting the path at any one sector is a valid split.  The arc
    minimum based on c is therefore the lightest sector away from c.
    Every sector touches two circles and so misses some third one, and
    every base circle leaves k-2 >= 1 sectors, so the minimum over all
    base circles is the lightest sector of all.
    """
    k = piece.circles
    weights = [mult for _, _, mult in piece.arcs]
    weights += [0] * min(2, k - len(weights))
    lightest, runner_up = sorted(weights)[:2]
    return PieceBounds(piece.id, lightest + runner_up, lightest if k >= 3 else None)


def certify_pieces(pieces: list[PlanarPiece], n: int) -> list[Check]:
    """One ``>=`` check against level n per condition of each piece, in
    file order; the pieces certify n when every check passes."""
    if not pieces:
        raise ValueError("no pieces to certify")
    if _strict_int(n, "certificate level") < 0:
        raise ValueError(f"certificate level must be >= 0, got {n}")
    return [Check(f"{pb.piece_id} {name}", n, value, ">=")
            for pb in map(evaluate_piece, pieces) for name, value in pb.conditions()]


def representativity_exact(mc: MultiCurve) -> Representativity:
    """Best certified window around the representativity, from the cut pieces.

    The lower end is the largest level both pieces certify, the least
    score; the upper end is the least loop minimum, which bounds a
    compressing disk (module docstring).  A score is the least of the
    loop minimum and twice the arc minimum, so lower <= upper holds
    piece by piece.  One piece per cut direction is evaluated, as its
    mirror carries the same arcs.  ``exact`` is the value when the ends
    meet.
    """
    bounds = [evaluate_piece(piece) for piece in cut_pieces(mc)]
    return Representativity(min(pb.score for pb in bounds), min(pb.loop_min for pb in bounds))
