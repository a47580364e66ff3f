"""Tools for multicurves on standard closed surfaces.

Provides surface models with reference curve systems, component counting
for smoothed intersections, lower-bound certificates from cut-open planar
pieces, face width of embedded graphs, an interval engine for classical
curve invariants, and parametric families tying these together.
"""

from surfrep.surface import SurfaceModel, CurveClass, MultiCurve, pairing, pairing_matrix
from surfrep.smoothing import PlanarPiece, cut_pieces, trace_components
from surfrep.certificate import (
    Certificate,
    Representativity,
    certify_pieces,
    upper_bound,
    representativity_exact,
)
from surfrep.facewidth import RotationSystem, radial, face_width
from surfrep.families import (
    FamilyInstance,
    torus_knot,
    exact_knot,
    lpq_link,
    parse_family,
    verify_family,
)
from surfrep.bounds import (
    Contradiction,
    Interval,
    SubjectTags,
    betti1,
    propagate,
)

__all__ = [
    "SurfaceModel",
    "CurveClass",
    "MultiCurve",
    "pairing",
    "pairing_matrix",
    "PlanarPiece",
    "cut_pieces",
    "trace_components",
    "Certificate",
    "Representativity",
    "certify_pieces",
    "upper_bound",
    "representativity_exact",
    "RotationSystem",
    "radial",
    "face_width",
    "FamilyInstance",
    "torus_knot",
    "exact_knot",
    "lpq_link",
    "parse_family",
    "verify_family",
    "Contradiction",
    "Interval",
    "SubjectTags",
    "betti1",
    "propagate",
]

__version__ = "0.1.0"
