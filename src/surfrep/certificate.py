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
n times.  Combined with the cheapest reference class as an upper bound
this often pins the representativity exactly.

Pieces here are necklace-shaped: boundary circles sit in a cyclic order
and every arc class joins two cyclically adjacent circles, so a piece is
a cycle of k sector weights.  Both minima have closed forms in those
weights, proved in the docstrings below; no drawing is ever constructed.
"""

from __future__ import annotations

from itertools import islice
from typing import Any

from surfrep.smoothing import PlanarPiece, cut_pieces
from surfrep.surface import MultiCurve, _Value, _set_field

__all__ = [
    "PieceBounds",
    "Certificate",
    "Representativity",
    "min_essential_loop",
    "min_essential_arc",
    "evaluate_piece",
    "certify_pieces",
    "upper_bound",
    "representativity_exact",
]


#-- Exact minima --#

def _sectors(piece: PlanarPiece) -> dict[int, int]:
    """Arc weight by sector, sector u joining circle u to u+1 mod k.

    Holds the nonempty sectors and up to three empty ones at weight 0,
    so its size follows the arcs, not k, and both minima stay exact: two
    empty sectors suffice for the two lightest, and one of three misses
    any base circle.  Raises ValueError when an arc pair is not
    cyclically adjacent.  With two circles both sectors join the same
    pair, whose merged multiplicity lands in sector 0; sector 1 is empty.
    """
    k = piece.circles
    weights: dict[int, int] = {}
    for a, b, mult in piece.arcs:
        if b - a == 1:
            weights[a] = mult
        elif b - a == k - 1:
            weights[b] = mult
        else:
            raise ValueError(
                f"arc pair ({a}, {b}) is not cyclically adjacent among {k} circles"
            )
    weights.update(dict.fromkeys(islice((u for u in range(k) if u not in weights), 3), 0))
    return weights


def min_essential_loop(piece: PlanarPiece) -> int:
    """Fewest arcs crossed by any essential loop in the piece.

    A loop is essential when it separates the boundary circles into two
    nonempty groups.  Isotoped tight, it crosses exactly the arcs of the
    sectors whose two circles it separates.  The sectors form a cycle
    through all k circles (at k = 2, sector 0 and an empty sector 1), and
    a split of a cycle's vertices into two nonempty groups cuts an even
    number of its edges, so at least two.  Any two sectors u < v are cut
    alone by the split {u+1, ..., v} against the rest.  The minimum is
    therefore the sum of the two smallest sector weights; at k = 2 it is
    the one merged multiplicity.

    Raises ValueError when the piece is not a necklace.
    """
    lightest, runner_up = sorted(_sectors(piece).values())[:2]
    return lightest + runner_up


def min_essential_arc(piece: PlanarPiece, circle: int) -> int | None:
    """Fewest arcs crossed by an essential arc based on ``circle``.

    The arc starts and ends on the given boundary circle and, together
    with part of that circle, must enclose at least one other circle on
    each side.  Returns None when fewer than three circles make every
    such arc inessential or boundary-parallel.

    The other k-1 circles then split into two nonempty groups.  The
    sectors c-1 and c touching the base circle c cost nothing: the arc
    ends can be placed so that every arc end of those two sectors lies
    on the same side as its far circle.  The remaining k-2 sectors form
    a path through the other circles, so the split cuts at least one of
    them, and cutting the path at any one sector is a valid split.  The
    minimum is therefore the smallest weight among the sectors that do
    not touch c.

    Raises ValueError when the piece is not a necklace.
    """
    k = piece.circles
    if not (0 <= circle < k):
        raise ValueError(f"no circle {circle} in a piece with {k} circles")
    if k < 3:
        return None
    weights = _sectors(piece)
    return min(w for u, w in weights.items() if u not in ((circle - 1) % k, circle))


#-- Certificates --#

class PieceBounds(_Value):
    """Exact loop and arc minima for one piece (None: no arc candidates)."""

    piece_id: str
    loop_min: int
    arc_min: int | None

    def __init__(self, piece_id: str, loop_min: int, arc_min: int | None) -> None:
        _set_field(self, "piece_id", piece_id)
        _set_field(self, "loop_min", loop_min)
        _set_field(self, "arc_min", arc_min)

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

    def to_json(self) -> dict[str, Any]:
        return {"id": self.piece_id, "loop_min": self.loop_min, "arc_min": self.arc_min}


class Certificate(_Value):
    """Evaluation of the two lower-bound conditions at level n."""

    n: int
    pieces: tuple[PieceBounds, ...]
    lower_ok: bool

    def __init__(self, n: int, pieces: tuple[PieceBounds, ...], lower_ok: bool) -> None:
        _set_field(self, "n", n)
        _set_field(self, "pieces", pieces)
        _set_field(self, "lower_ok", lower_ok)

    def to_json(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "pieces": [p.to_json() for p in self.pieces],
            "lower_ok": self.lower_ok,
        }


class Representativity(_Value):
    """Certified range: lower <= representativity <= upper."""

    lower: int
    upper: int
    exact: int | None

    def __init__(self, lower: int, upper: int, exact: int | None) -> None:
        _set_field(self, "lower", lower)
        _set_field(self, "upper", upper)
        _set_field(self, "exact", exact)

    def to_json(self) -> dict[str, Any]:
        return {"lower": self.lower, "upper": self.upper, "exact": self.exact}


def evaluate_piece(piece: PlanarPiece) -> PieceBounds:
    """Loop minimum and the minimum over all base circles of arc minima.

    Both come from one read of the sector weights.  At k >= 3 the arc
    minimum based on circle c is the lightest sector not touching c.
    Every sector touches two circles and so misses some third one, and
    every base circle leaves k - 2 >= 1 sectors, so the minimum over all
    base circles is the lightest sector of all.  At k = 2 no circle has
    an arc minimum and the result is None.

    Raises ValueError when the piece is not a necklace.
    """
    lightest, runner_up = sorted(_sectors(piece).values())[:2]
    return PieceBounds(
        piece.id, lightest + runner_up, lightest if piece.circles >= 3 else None
    )


def certify_pieces(pieces: list[PlanarPiece], n: int) -> Certificate:
    """Evaluate the certificate conditions at level n on explicit pieces."""
    if not pieces:
        raise ValueError("no pieces to certify")
    if n < 0:
        raise ValueError(f"certificate level must be >= 0, got {n}")
    bounds = tuple(evaluate_piece(p) for p in pieces)
    return Certificate(n, bounds, all(pb.score >= n for pb in bounds))


def upper_bound(mc: MultiCurve) -> int:
    """Cheapest reference class: an embedded upper bound for the representativity."""
    return mc.min_boundary_count()


def representativity_exact(mc: MultiCurve) -> Representativity:
    """Best certified window around the representativity.

    The upper bound is the cheapest reference class; the lower bound is
    the largest level the cut pieces certify, capped by the upper bound.
    One piece per cut direction is evaluated, as its mirror carries the
    same arcs.  ``exact`` is set when the bounds meet.
    """
    upper = upper_bound(mc)
    scores = [
        evaluate_piece(cut_pieces(mc, along)).score for along in ("meridians", "longitudes")
    ]
    lower = min(upper, *scores)
    return Representativity(lower, upper, upper if lower == upper else None)
