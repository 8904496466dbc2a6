"""Exact Sommerfeld-integral solver for the Helmholtz Dirichlet problem in a
nonconvex plane angle with periodic boundary data."""

from .core import (
    BranchPoint,
    PolarPoint,
    ProblemParams,
    Tolerances,
    branch_point,
    theta_reflect,
    validate_params,
)
from .contour import (
    ContourPolyline,
    decomposition_contour,
    sommerfeld_double_loop,
    truncation_cutoff,
)
from .kernel import KernelEngine, build_engine

__all__ = [
    "BranchPoint",
    "ContourPolyline",
    "KernelEngine",
    "PolarPoint",
    "ProblemParams",
    "Tolerances",
    "branch_point",
    "build_engine",
    "decomposition_contour",
    "sommerfeld_double_loop",
    "theta_reflect",
    "truncation_cutoff",
    "validate_params",
]

__version__ = "0.1.0"
