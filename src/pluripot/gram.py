"""Weighted Gram systems, Bergman functions, and free energy.

The Gram matrix of a discrete measure in the monomial basis is the
information matrix of D-optimal design; everything here routes through its
Cholesky factor (triangular solves only, never an explicit inverse).
Without a weight the graded-lex basis of P_n is a prefix of P_{n+1}'s, so
G_n and its factor are leading blocks of G_{n+1} and its factor, and
gram_sequence reads a whole degree sequence off one factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import dimension_counts, enumerate_basis
from .domains import AdmissibleWeight, CandidateSet, as_points, check_masses, finite_weight_power
from .errors import DegenerateMeasureError, InvalidInputError
from .vdm import _lapack, diameter_exponent, monomial_values

# Smallest accepted equilibrated Cholesky pivot L_ii^2 / G_ii: the share of
# basis function i's L2(mu) norm that the lower basis functions leave
# unexplained (1 for an orthogonal basis, whatever its scale).  Measured on
# the monomial basis: on uniform grid measures every accepted Gram keeps
# the trace identity sum_k mu_k B(z_k) = N to about 1e-8 relative (worst:
# the 41 x 41 square at n = 14, pivot 9.6e-8); on 20,000 random measures
# on 4-15 points in C (n <= 4) the worst accepted error is 1.7e-7.
MIN_PIVOT = 5e-8

# Relative gaps below factorization noise: no Fekete swap, and B argmax ties.
EXCHANGE_TOL = 1e-12

# log of the square root of the smallest normal float: a Gram entry carries
# w^(2n), which underflows where w^n lies below this; and log of the largest.
_LOG_TINY = 0.5 * math.log(np.finfo(float).tiny)
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure riding on a CandidateSet."""

    candidates: CandidateSet
    masses: np.ndarray

    def __post_init__(self):
        masses = check_masses(self.masses, len(self.candidates))
        object.__setattr__(self, "masses", masses)

    @staticmethod
    def uniform(candidates: CandidateSet) -> "DiscreteMeasure":
        m = len(candidates)
        return DiscreteMeasure(candidates, np.full(m, 1.0 / m))

    @staticmethod
    def from_reference(candidates: CandidateSet) -> "DiscreteMeasure":
        if candidates.masses is None:
            raise InvalidInputError("candidate set carries no quadrature masses")
        return DiscreteMeasure(candidates, candidates.masses.copy())


@dataclass(frozen=True)
class GramSystem:
    """Degree-n Gram matrix for (mu, Q) with its Cholesky factor."""

    degree: int
    dimension: int
    weight: AdmissibleWeight
    matrix: np.ndarray = field(repr=False)
    chol: np.ndarray = field(repr=False)
    log_det: float
    # matrix and chol are those of the columns scaled by exp(n shift); see
    # _weight_shift.  log_det is the unscaled Gram's.
    shift: float = 0.0

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def smallest_share(self) -> float:
        """The smallest pivot share L_ii^2 / G_ii (see MIN_PIVOT)."""
        shares = self.chol.diagonal().real ** 2 / self.matrix.diagonal().real
        return float(shares.min())


def _weight_shift(q: np.ndarray, n: int) -> float:
    """The Q that a Gram's columns are scaled relative to: min Q where some
    finite w^(2n) underflows, so that w^n / max w^n keeps the entries' digits;
    0 elsewhere, which leaves w^n as it is, and where some w^n overflows, for
    _basis_columns to refuse it by name."""
    finite = q[np.isfinite(q)]
    if finite.size and -n * finite.max() < _LOG_TINY and -n * finite.min() < _LOG_MAX:
        return float(finite.min())
    return 0.0


def _basis_columns(points: np.ndarray, q: np.ndarray, n: int, shift: float = 0.0) -> np.ndarray:
    """The degree-n basis monomials (rows) at every point.

    Each point's column is scaled by w^n exp(n shift) = exp(-n (Q - shift));
    q holds Q at the (M, d) points.  A scale that overflows is refused by
    name.
    """
    indices = enumerate_basis(n, points.shape[1])
    return monomial_values(indices, points) * finite_weight_power(q, n, shift)


def _factor(cols: np.ndarray, masses: np.ndarray):
    """G = sum_k mass_k c_k c_k^* over the columns c_k, its Cholesky factor
    L and the equilibrated pivots L_ii^2 / G_ii ("shares").
    """
    active = masses > 0
    support = cols[:, active]
    g = (support * masses[active]) @ support.conj().T
    g = 0.5 * (g + g.conj().T)
    chol, info = _lapack("potrf", g)(g, lower=True, clean=True)
    diag = chol.diagonal().real
    # potrf stops at pivot `info` when it is not positive; the shares of the
    # pivots it completed have G_ii >= L_ii^2 > 0, the rest count as 0.
    done = info - 1 if info > 0 else len(g)
    shares = np.zeros(len(g))
    shares[:done] = diag[:done] ** 2 / g.diagonal().real[:done]
    return g, chol, shares


def _system(
    factor, dimension: int, weight: AdmissibleWeight, n: int, size: int, shift: float = 0.0
) -> GramSystem:
    """The degree-n system on the leading size x size block of _factor's
    G and L, whose columns carry exp(n shift): log det G subtracts
    2 size n shift.

    The rank is the number of leading pivot shares above MIN_PIVOT; a block
    of lower rank raises DegenerateMeasureError.
    """
    g, chol, shares = factor
    shares = shares[:size]
    passed = shares > MIN_PIVOT  # False on NaN
    if not passed.all():
        rank = int(np.argmin(passed))
        raise DegenerateMeasureError(
            f"measure is degenerate for degree {n}: smallest pivot"
            f" L_ii^2/G_ii {shares.min():.2e} < {MIN_PIVOT:.0e},"
            f" numerical rank {rank} < {size}",
            rank=rank,
        )
    log_det = 2.0 * float(np.sum(np.log(chol.diagonal().real[:size]))) - 2.0 * size * n * shift
    return GramSystem(
        degree=n,
        dimension=dimension,
        weight=weight,
        matrix=g[:size, :size],
        chol=chol[:size, :size],
        log_det=log_det,
        shift=shift,
    )


def _gram_from_columns(
    dimension: int,
    cols: np.ndarray,
    masses: np.ndarray,
    weight: AdmissibleWeight,
    n: int,
    shift: float = 0.0,
) -> GramSystem:
    """The Gram system over the columns c_k that _basis_columns scaled with
    this shift (see _system)."""
    return _system(_factor(cols, masses), dimension, weight, n, len(cols), shift)


def gram_matrix(
    mu: DiscreteMeasure, weight: AdmissibleWeight, n: int
) -> GramSystem:
    """G_ij = sum_k mass_k e_i(z_k) conj(e_j(z_k)) exp(-2 n Q(z_k))."""
    points = mu.candidates.points
    q = weight(points)
    shift = _weight_shift(q, n)
    cols = _basis_columns(points, q, n, shift)
    return _gram_from_columns(points.shape[1], cols, mu.masses, weight, n, shift)


def _whitened_columns(sys: GramSystem, cols: np.ndarray) -> np.ndarray:
    """Y = L^{-1} C: the columns in a basis orthonormal in L2(mu).

    A column holding inf or NaN raises InvalidInputError.  L has the positive
    diagonal that _gram_from_columns checked, so LAPACK trtrs cannot fail.
    """
    if not np.isfinite(cols).all():
        raise InvalidInputError("basis values at the evaluation points are not finite")
    y, _ = _lapack("trtrs", sys.chol, cols)(sys.chol, cols, lower=1)
    return y


def bergman_function(sys: GramSystem, eval_points: np.ndarray) -> np.ndarray:
    """B(z) = exp(-2nQ(z)) P(z)* G^{-1} P(z) at each evaluation point.

    The columns are scaled as the Gram's were, so B is unchanged; a point
    whose scale overflows is refused by name.
    """
    pts = as_points(eval_points)
    cols = _basis_columns(pts, sys.weight(pts), sys.degree, sys.shift)
    return np.sum(np.abs(_whitened_columns(sys, cols)) ** 2, axis=0)


def gram_and_bergman(
    mu: DiscreteMeasure, weight: AdmissibleWeight, n: int
) -> tuple[GramSystem, np.ndarray]:
    """gram_matrix(mu, weight, n) and B at mu's points, from one basis evaluation."""
    points = mu.candidates.points
    q = weight(points)
    shift = _weight_shift(q, n)
    cols = _basis_columns(points, q, n, shift)
    sys = _gram_from_columns(points.shape[1], cols, mu.masses, weight, n, shift)
    return sys, np.sum(np.abs(_whitened_columns(sys, cols)) ** 2, axis=0)


def gram_sequence(
    mu: DiscreteMeasure, weight: AdmissibleWeight, n_max: int
) -> list[tuple[GramSystem, np.ndarray]]:
    """[gram_and_bergman(mu, weight, n) for n = 1, ..., n_max].

    Without a weight G_n is the leading m_n x m_n block of G_{n_max}, so one
    factor L and one solve Y = L^{-1} C serve every degree: L_n is L's
    leading block and B_n sums the first m_n rows of |Y|^2.  The first
    degree whose block fails the pivot check raises as gram_matrix does.
    """
    if weight.kind != "zero" or n_max < 1:
        return [gram_and_bergman(mu, weight, n) for n in range(1, n_max + 1)]
    points = mu.candidates.points
    d = points.shape[1]
    cols = _basis_columns(points, weight(points), n_max)
    factor = _factor(cols, mu.masses)
    systems = [
        _system(factor, d, weight, n, dimension_counts(n, d)[0])
        for n in range(1, n_max + 1)
    ]
    partial = np.cumsum(np.abs(_whitened_columns(systems[-1], cols)) ** 2, axis=0)
    return [(sys, partial[sys.size - 1]) for sys in systems]


def normalized_log_det(sys: GramSystem) -> float:
    """(d+1)/(2 d n N) * log det G; estimates log of the transfinite diameter."""
    if sys.degree < 1:
        raise InvalidInputError("normalized log-det needs degree >= 1")
    return diameter_exponent(sys.degree, sys.dimension) / 2 * sys.log_det


def free_energy(mu: DiscreteMeasure, weight: AdmissibleWeight, n: int) -> float:
    """log Z_n = log N! + log det G (standard-monomial Gram)."""
    sys = gram_matrix(mu, weight, n)
    return math.lgamma(sys.size + 1) + sys.log_det
