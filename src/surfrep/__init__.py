"""Tools for multicurves on standard closed surfaces.

Provides weighted multicurves on the torus and the chain surfaces,
component counting for smoothed intersections, lower-bound certificates
from cut-open planar pieces, face width of embedded graphs, an interval
engine for classical curve invariants, and parametric families tying
these together.

Each public name is imported from its module on first access, so
``import surfrep`` loads no module of the package until a name is read.
"""

import importlib

#: public name -> the module of the package that defines it
_EXPORTS = {
    "MultiCurve": "surface",
    "trace_components": "smoothing",
    "PlanarPiece": "certificate",
    "cut_pieces": "certificate",
    "Representativity": "certificate",
    "certify_pieces": "certificate",
    "representativity_exact": "certificate",
    "RotationSystem": "facewidth",
    "radial": "facewidth",
    "face_width": "facewidth",
    "FamilyInstance": "families",
    "torus_knot": "families",
    "exact_knot": "families",
    "lpq_link": "families",
    "parse_family": "families",
    "verify_family": "families",
    "Contradiction": "bounds",
    "Interval": "bounds",
    "SubjectTags": "bounds",
    "propagate": "bounds",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """Import the module behind a public name and keep the value here."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
