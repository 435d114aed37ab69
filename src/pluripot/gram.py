"""Weighted Gram systems, Bergman functions, and free energy.

The Gram matrix of a discrete measure in the monomial basis is the
information matrix of D-optimal design; everything here routes through its
Cholesky factor (triangular solves only, never an explicit inverse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .basis import enumerate_basis
from .domains import AdmissibleWeight, CandidateSet, as_points, weight_power
from .errors import DegenerateMeasureError, InvalidInputError
from .vdm import monomial_values

MASS_TOL = 1e-12

# Monomial Grams go numerically rank-deficient beyond these degrees.
DEGREE_CAPS = {1: 30, 2: 12, 3: 8}


def check_degree_cap(n: int, d: int, override: bool = False) -> None:
    cap = DEGREE_CAPS.get(d, 8)
    if n > cap and not override:
        raise InvalidInputError(
            f"degree {n} exceeds the default cap {cap} for dimension {d};"
            " pass override to proceed"
        )


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure riding on a CandidateSet."""

    candidates: CandidateSet
    masses: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.masses, dtype=float)
        if w.shape != (len(self.candidates),):
            raise InvalidInputError("one mass per candidate point required")
        if np.any(w < 0):
            raise InvalidInputError("masses must be nonnegative")
        if abs(w.sum() - 1.0) > MASS_TOL:
            raise InvalidInputError(f"masses must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "masses", w)

    @staticmethod
    def uniform(candidates: CandidateSet) -> "DiscreteMeasure":
        m = len(candidates)
        return DiscreteMeasure(candidates, np.full(m, 1.0 / m))

    @staticmethod
    def from_reference(candidates: CandidateSet) -> "DiscreteMeasure":
        if candidates.masses is None:
            raise InvalidInputError("candidate set carries no quadrature masses")
        return DiscreteMeasure(candidates, candidates.masses.copy())

    def support(self) -> np.ndarray:
        return np.nonzero(self.masses > 0)[0]


@dataclass(frozen=True)
class GramSystem:
    """Degree-n Gram matrix for (mu, Q) with its Cholesky factor."""

    degree: int
    dimension: int
    weight: AdmissibleWeight
    matrix: np.ndarray = field(repr=False)
    chol: np.ndarray = field(repr=False)
    log_det: float
    basis_indices: tuple = field(repr=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def _basis_columns(
    cand: CandidateSet, q: np.ndarray, n: int, override_degree_cap: bool
) -> tuple[tuple, np.ndarray]:
    """Degree-n basis indices and the monomials (rows) at every candidate.

    Each candidate's column is scaled by w^n; q holds Q at the candidates.
    """
    check_degree_cap(n, cand.dimension, override_degree_cap)
    indices = enumerate_basis(n, cand.dimension).indices
    return indices, monomial_values(indices, cand.points) * weight_power(q, n)


def _gram_from_columns(
    indices: tuple,
    cols: np.ndarray,
    masses: np.ndarray,
    weight: AdmissibleWeight,
    n: int,
) -> GramSystem:
    """G = sum_k mass_k c_k c_k^* over the w^n-scaled columns c_k."""
    active = masses > 0
    support = cols[:, active]
    g = (support * masses[active]) @ support.conj().T
    g = 0.5 * (g + g.conj().T)
    try:
        chol = scipy.linalg.cholesky(g, lower=True)
    except scipy.linalg.LinAlgError:
        eigs = scipy.linalg.eigvalsh(g)
        rank = int(np.sum(eigs > max(eigs.max(), 0.0) * len(eigs) * 1e-15))
        raise DegenerateMeasureError(
            f"measure is degenerate for degree {n}: numerical rank {rank} < {len(g)}",
            rank=rank,
        )
    log_det = 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))
    return GramSystem(
        degree=n,
        dimension=len(indices[0]),
        weight=weight,
        matrix=g,
        chol=chol,
        log_det=log_det,
        basis_indices=indices,
    )


def gram_matrix(
    mu: DiscreteMeasure,
    weight: AdmissibleWeight,
    n: int,
    override_degree_cap: bool = False,
) -> GramSystem:
    """G_ij = sum_k mass_k e_i(z_k) conj(e_j(z_k)) exp(-2 n Q(z_k))."""
    cand = mu.candidates
    indices, cols = _basis_columns(
        cand, weight(cand.points), n, override_degree_cap
    )
    return _gram_from_columns(indices, cols, mu.masses, weight, n)


def _bergman_from_columns(sys: GramSystem, cols: np.ndarray) -> np.ndarray:
    """B = |L^{-1} c|^2 for each w^n-scaled monomial column c."""
    y = scipy.linalg.solve_triangular(sys.chol, cols, lower=True)
    return np.sum(np.abs(y) ** 2, axis=0)


def bergman_function(sys: GramSystem, eval_points: np.ndarray) -> np.ndarray:
    """B(z) = exp(-2nQ(z)) P(z)* G^{-1} P(z) at each evaluation point."""
    pts = as_points(eval_points)
    cols = monomial_values(sys.basis_indices, pts) * weight_power(
        sys.weight(pts), sys.degree
    )
    return _bergman_from_columns(sys, cols)


def bm_constant(sys: GramSystem, cand: CandidateSet) -> tuple[float, np.ndarray]:
    """Best sup-over-L2 constant M_n = max_K sqrt(B), with the argmax point."""
    b = bergman_function(sys, cand.points)
    k = int(np.argmax(b))
    return float(np.sqrt(b[k])), cand.points[k]


def normalized_log_det(sys: GramSystem) -> float:
    """(d+1)/(2 d n N) * log det G; estimates log of the transfinite diameter."""
    if sys.degree < 1:
        raise InvalidInputError("normalized log-det needs degree >= 1")
    d, n, n_dim = sys.dimension, sys.degree, sys.size
    return (d + 1) / (2.0 * d * n * n_dim) * sys.log_det


def free_energy(
    mu: DiscreteMeasure,
    weight: AdmissibleWeight,
    n: int,
    override_degree_cap: bool = False,
) -> float:
    """log Z_n = log N! + log det G (standard-monomial Gram)."""
    sys = gram_matrix(mu, weight, n, override_degree_cap)
    return math.lgamma(sys.size + 1) + sys.log_det
