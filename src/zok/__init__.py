"""Exact Zariski decompositions and generalized Okounkov polygons on finite
rational intersection lattices.

Every public name below is importable from the package (``from zok import
okounkov_polygon``, ``zok.okounkov_polygon``), but a submodule is imported
only when one of its names is first used (PEP 562 module ``__getattr__``).
``import zok`` therefore loads nothing, and the ``zok`` command loads only
the modules its subcommand runs.
"""

from __future__ import annotations

import importlib

# defining submodule -> the public names the package re-exports from it
_EXPORTS = {
    "errors": (
        "EpsilonTooLarge", "FlagInNonKahlerLocus", "HypothesisViolated",
        "InvariantError", "MathVerdictError", "ModelValidationError",
        "MultipleCandidates", "NotBig", "NotNef", "NotOnBoundary",
        "NotPseudoEffective", "UnknownCurve", "UnsupportedDirection",
        "UsageError", "ZokError",
    ),
    "exact": ("ExtRat", "QuadExt", "Rat", "sqrt_rat"),
    "lattice": (
        "CurveRecord", "SurfaceModel", "intersect", "is_negative_definite",
        "make_model", "signature", "solve_linear", "validate_model",
    ),
    "okounkov": (
        "BoundaryBody", "FlagSpec", "OkounkovPolygon", "PiecewiseLinear",
        "SegmentChamber", "boundary_body", "envelopes", "okounkov_polygon",
        "restricted_body", "segment_chambers", "slopes",
    ),
    "oracle": (
        "ModelGenSpec", "OracleReport", "area_by_integration",
        "brute_force_zariski", "derivative_by_chambers", "random_model",
        "run_model_verification",
    ),
    "polygon": ("minkowski_sum", "polygon_contains", "shoelace_area"),
    "zariski": (
        "Classification", "Kind", "MorseCertificate", "ZariskiDecomp",
        "classify", "derivative_vol", "enumerate_exceptional_families",
        "is_nef_in_model", "morse_gap", "non_kahler_curves", "null_curves",
        "orthogonal_nef_lift", "perturbed_decomposition", "volume",
        "zariski_decompose",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that defines ``name`` (or is ``name``) and cache
    the value here, so later lookups are plain attribute reads."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_HOME))
