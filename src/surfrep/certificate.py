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
weights, proved in the docstring of :func:`evaluate_piece`; no drawing is
ever constructed.
"""

from __future__ import annotations

from surfrep.smoothing import PlanarPiece, cut_pieces
from surfrep.surface import MultiCurve, _strict_int, _Value, _set_field

__all__ = [
    "PieceBounds",
    "Certificate",
    "Representativity",
    "evaluate_piece",
    "certify_pieces",
    "upper_bound",
    "representativity_exact",
]


#-- Exact minima --#

def _two_lightest(piece: PlanarPiece) -> tuple[int, int]:
    """The two smallest sector weights, sector u joining circle u to u+1 mod k.

    Each arc pair fills one sector with its multiplicity and the other
    sectors weigh 0.  At most two of those empty sectors can be among
    the two lightest, so memory follows the arcs, not k.  With two
    circles both sectors join the same pair: its merged multiplicity
    fills one and the other is empty.  Raises ValueError when an arc
    pair is not cyclically adjacent.
    """
    k = piece.circles
    weights: list[int] = []
    for a, b, mult in piece.arcs:
        if b - a != 1 and b - a != k - 1:
            raise ValueError(
                f"arc pair ({a}, {b}) is not cyclically adjacent among {k} circles"
            )
        weights.append(mult)
    weights += [0] * min(2, k - len(weights))
    lightest, runner_up = sorted(weights)[:2]
    return lightest, runner_up


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


class Certificate(_Value):
    """Evaluation of the two lower-bound conditions at level n."""

    n: int
    pieces: tuple[PieceBounds, ...]

    def __init__(self, n: int, pieces: tuple[PieceBounds, ...]) -> None:
        _set_field(self, "n", n)
        _set_field(self, "pieces", pieces)

    @property
    def lower_ok(self) -> bool:
        """Whether every piece certifies level n."""
        return all(pb.score >= self.n for pb in self.pieces)


class Representativity(_Value):
    """Certified range: lower <= representativity <= upper."""

    lower: int
    upper: int

    def __init__(self, lower: int, upper: int) -> None:
        _set_field(self, "lower", lower)
        _set_field(self, "upper", upper)

    @property
    def exact(self) -> int | None:
        """The representativity when the bounds meet, else None."""
        return self.upper if self.lower == self.upper else None


def evaluate_piece(piece: PlanarPiece) -> PieceBounds:
    """Loop minimum and the minimum over all base circles of arc minima.

    Both come from one read of the sector weights.

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

    Raises ValueError when the piece is not a necklace.
    """
    lightest, runner_up = _two_lightest(piece)
    return PieceBounds(
        piece.id, lightest + runner_up, lightest if piece.circles >= 3 else None
    )


def certify_pieces(pieces: list[PlanarPiece], n: int) -> Certificate:
    """Evaluate the certificate conditions at level n on explicit pieces."""
    if not pieces:
        raise ValueError("no pieces to certify")
    if _strict_int(n, "certificate level") < 0:
        raise ValueError(f"certificate level must be >= 0, got {n}")
    return Certificate(n, tuple(evaluate_piece(p) for p in pieces))


def upper_bound(mc: MultiCurve) -> int:
    """Cheapest reference class: an embedded upper bound for the representativity."""
    return mc.min_boundary_count()


def representativity_exact(mc: MultiCurve) -> Representativity:
    """Best certified window around the representativity.

    The upper bound is the cheapest reference class; the lower bound is
    the largest level the cut pieces certify, capped by the upper bound.
    One piece per cut direction is evaluated, as its mirror carries the
    same arcs.  ``exact`` is the value when the bounds meet.
    """
    upper = upper_bound(mc)
    scores = [
        evaluate_piece(cut_pieces(mc, along)).score for along in ("meridians", "longitudes")
    ]
    return Representativity(min(upper, *scores), upper)
