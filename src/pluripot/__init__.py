"""Desk-scale numerics for weighted pluripotential theory.

Weighted Fekete points, D-optimal measures, Gram/Bergman quantities,
transfinite diameters, directional Chebyshev constants, and closed-form
Monge-Ampere energy identities, with built-in cross-checks.
"""

__version__ = "0.1.0"

from .basis import degree_block, dimension_counts, enumerate_basis
from .domains import AdmissibleWeight, CandidateSet, build_set
from .errors import (
    DegenerateMeasureError,
    InvalidInputError,
    PluripotError,
    UnsupportedModelError,
)
from .gram import DiscreteMeasure, GramSystem, gram_matrix

__all__ = [
    "degree_block",
    "dimension_counts",
    "enumerate_basis",
    "AdmissibleWeight",
    "CandidateSet",
    "build_set",
    "DiscreteMeasure",
    "GramSystem",
    "gram_matrix",
    "PluripotError",
    "InvalidInputError",
    "DegenerateMeasureError",
    "UnsupportedModelError",
    "__version__",
]
