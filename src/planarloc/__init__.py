"""Certified planar location optimization.

Weighted Fermat-Torricelli points (least weighted distance sum) and
weighted Chebyshev centers (least worst-case weighted distance) of finite
planar point sets.  Every solver answer comes with an explicit optimality
certificate: a norm-one supporting functional in the sum norm or the max
norm that a caller can recheck independently.

Importing the package loads none of its modules.  Each exported name, and
each module named in ``_EXPORTS``, is imported on its first read.
"""

import sys

__version__ = "0.1.0"

# each module and the names the package exports from it
_EXPORTS = {
    "tolerances": ("EPS_CLASS", "EPS_REL", "spread"),
    "geom": (
        "Circle",
        "Line",
        "ConvexOrder",
        "NonConvex",
        "directed_angle",
        "normalize_angle",
        "convex_hull_membership",
        "circumcenter3",
        "apollonius_locus",
        "segment_intersection",
        "quadrilateral_shape",
    ),
    "bjorth": (
        "SupportCertificate",
        "is_bj_orthogonal_l1",
        "is_bj_orthogonal_linf",
        "smoothness_order_linf",
    ),
    "fermat": (
        "WeightedConfiguration",
        "FtCase",
        "FtPoint",
        "FtSegment",
        "FtSolveResult",
        "ft_objective",
        "ft_certificate",
        "solve_ft3_weighted",
        "solve_ft4",
        "solve_ft_n",
    ),
    "theorems": (
        "OrthogonalityType",
        "TripleClass",
        "UNDETERMINED",
        "addition_preserves",
        "replacement_preserves",
        "decomposition_equivalence",
        "scaled_configuration",
        "extend_at_vertex",
        "classify_l1_orthogonal_3",
        "classify_l1_orthogonal_4",
        "unimodular_triple_class",
    ),
    "chebyshev": (
        "ChebySolveResult",
        "cheby_certificate",
        "chebyshev_radius",
        "solve_chebyshev",
        "solve_chebyshev_weighted",
        "ft_cheby_coincide3",
        "ft_cheby_coincide4",
    ),
    "oracle": ("OracleSettings", "oracle_ft", "oracle_cheby"),
    "errors": (
        "PlanarLocError",
        "EmptyInput",
        "CoincidentPoints",
        "DuplicatePoints",
        "CollinearPoints",
        "OverlappingSegments",
        "NotUnimodular",
        "ZeroVector",
        "LengthMismatch",
        "NotOrthogonal",
        "WeightConditionViolated",
        "MixedSigns",
        "CertificatePreconditionFailed",
        "VertexPreconditionFailed",
        "MaxIterationsExceeded",
        "ProblemFormatError",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def _module(name: str):
    # the import statement's own machinery, which -X importtime reports
    full = f"{__name__}.{name}"
    __import__(full)
    return sys.modules[full]


def __getattr__(name):
    if name in _EXPORTS:
        return _module(name)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_module(_MODULE_OF[name]), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
