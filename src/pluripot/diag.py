"""Asymptotics diagnostics: perturbation paths, concavity, weak-* distances.

The perturbation path tilts the weight by exp(-t u) and tracks the
normalized log-det; its analytic derivative is a Bergman average of u, and
concavity of the path is a structural fact checked numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import enumerate_basis
from .domains import AdmissibleWeight
from .energy import ExtremalModel, equilibrium_cdf
from .errors import InvalidInputError, PluripotError
from .gram import (
    DiscreteMeasure,
    GramSystem,
    gram_and_bergman,
    gram_matrix,
    normalized_log_det,
)
from .vdm import monomial_values

DEFAULT_T_GRID = np.linspace(-0.5, 0.5, 11)
FD_STEP = 1e-4
# The trace identity sum_k mu_k B(z_k) = N holds to about TRACE_ULPS * eps / s
# relative for a Gram whose smallest pivot share is s: the worst measured
# over 20,000 random measures on 4-15 points in C (n <= 4), not a proven
# bound (the error follows the Gram's condition number, not 1 / s).
TRACE_ULPS = 354


def _tilted_weight(
    base: AdmissibleWeight, u_fn: Callable[[np.ndarray], np.ndarray], t: float
) -> AdmissibleWeight:
    """Weight with Q_t = Q + t*u, i.e. w_t = w exp(-t u)."""
    if t == 0.0:
        return base
    return AdmissibleWeight.custom(
        lambda pts: base(pts) + t * np.asarray(u_fn(pts), dtype=float)
    )


@dataclass
class PathReport:
    degree: int
    t_grid: np.ndarray
    values: np.ndarray
    analytic_derivatives: np.ndarray
    fd_derivatives: np.ndarray
    second_differences: np.ndarray = field(repr=False)

    def max_second_difference(self) -> float:
        """Max interior second difference; nonpositive up to noise on a concave path."""
        if len(self.second_differences) == 0:
            raise InvalidInputError("need >= 3 grid points for second differences")
        return float(np.max(self.second_differences))

    def to_dict(self) -> dict:
        return {
            "n": self.degree,
            "t": self.t_grid.tolist(),
            "f": self.values.tolist(),
            "f_prime_analytic": self.analytic_derivatives.tolist(),
            "f_prime_fd": self.fd_derivatives.tolist(),
            "second_differences": self.second_differences.tolist(),
        }


def f_n_path(
    mu: DiscreteMeasure,
    weight: AdmissibleWeight,
    u_fn: Callable[[np.ndarray], np.ndarray],
    n: int,
    t_grid: np.ndarray | None = None,
    fd_step: float = FD_STEP,
) -> PathReport:
    """Path t -> -(d+1)/(2dnN) log det G(w e^{-tu}) with both derivatives."""
    if t_grid is None:
        t_grid = DEFAULT_T_GRID.copy()
    t_grid = np.asarray(t_grid, dtype=float)
    steps = np.diff(t_grid)
    if np.any(steps <= 0):
        raise InvalidInputError("t grid must be strictly increasing")
    # The second differences divide by the one spacing squared.
    if not np.allclose(steps, steps[:1], rtol=1e-9, atol=0.0):
        raise InvalidInputError("t grid must be uniformly spaced")
    d = mu.candidates.dimension
    u_vals = np.asarray(u_fn(mu.candidates.points), dtype=float)

    def gram_at(t: float, build=gram_matrix):
        try:
            return build(mu, _tilted_weight(weight, u_fn, t), n)
        except PluripotError as exc:
            raise PluripotError(f"degenerate Gram at t = {t}: {exc}") from exc

    def f_of(sys: GramSystem) -> float:
        return -normalized_log_det(sys)

    grid = [gram_at(t, gram_and_bergman) for t in t_grid]
    values = np.array([f_of(sys) for sys, _ in grid])
    analytic = [
        (d + 1) / (d * sys.size) * float(np.sum(mu.masses * u_vals * b))
        for sys, b in grid
    ]
    fd = np.array([
        (f_of(gram_at(t + fd_step)) - f_of(gram_at(t - fd_step))) / (2 * fd_step)
        for t in t_grid
    ])
    if len(t_grid) >= 3:
        second = (values[:-2] - 2 * values[1:-1] + values[2:]) / steps[0] ** 2
    else:
        second = np.zeros(0)
    return PathReport(
        degree=n,
        t_grid=t_grid,
        values=values,
        analytic_derivatives=np.array(analytic),
        fd_derivatives=fd,
        second_differences=second,
    )


def _moment_matrix(mu: DiscreteMeasure, indices) -> np.ndarray:
    """[sum_k mass_k z_k^alpha conj(z_k^beta)] over alpha, beta in indices."""
    emat = monomial_values(indices, mu.candidates.points)
    return (emat * mu.masses) @ emat.conj().T


def weak_star_distance(
    mu_a: DiscreteMeasure,
    ref: "DiscreteMeasure | ExtremalModel",
    max_moment: int = 5,
) -> float:
    """Sup over bounded-degree mixed moments of the moment mismatch."""
    d = mu_a.candidates.dimension
    if isinstance(ref, ExtremalModel) and ref.dimension != d:
        raise InvalidInputError("dimension mismatch")
    if isinstance(ref, DiscreteMeasure) and ref.candidates.dimension != d:
        raise InvalidInputError("dimension mismatch")
    indices = enumerate_basis(max_moment, d)
    if isinstance(ref, DiscreteMeasure):
        ref_moments = _moment_matrix(ref, indices)
    else:
        # The model's mixed moments vanish.
        moment = ref.known("moment")
        ref_moments = np.diag([moment(sum(a)) for a in indices])
    return float(np.max(np.abs(_moment_matrix(mu_a, indices) - ref_moments)))


def radial_cdf_distance(mu: DiscreteMeasure, model: ExtremalModel) -> float:
    """Sup distance between the radial CDF of mu and the model's closed form."""
    if mu.candidates.dimension != 1:
        raise InvalidInputError("radial CDF distance is one-dimensional")
    rho = np.abs(mu.candidates.points[:, 0])
    if model.has("torus_radius"):
        # Radii within rounding of the model's Shilov circle lie on it.
        r = model.known("torus_radius")()
        rho[np.isclose(rho, r, rtol=1e-12, atol=0.0)] = r
    radii, tie = np.unique(rho, return_inverse=True)
    cum = np.cumsum(np.bincount(tie, weights=mu.masses))
    below = np.concatenate([[0.0], cum[:-1]])
    # Between radii both CDFs are monotone and mu's is constant, so the sup
    # is at a radius: right values against right values, left limits
    # against left limits.
    ref = equilibrium_cdf(model, radii)
    ref_below = equilibrium_cdf(model, np.nextafter(radii, -np.inf))
    return float(np.max(np.maximum(np.abs(cum - ref), np.abs(below - ref_below))))


def bergman_measure(
    mu: DiscreteMeasure,
    weight: AdmissibleWeight,
    n: int,
) -> DiscreteMeasure:
    """The probability measure (1/N) B dmu (trace identity gives mass 1).

    The mass may miss 1 by TRACE_ULPS * eps / (the Gram's smallest pivot
    share), the rounding error measured for Grams the pivot check accepts.
    """
    sys, b = gram_and_bergman(mu, weight, n)
    masses = mu.masses * b / sys.size
    total = masses.sum()
    tol = TRACE_ULPS * np.finfo(float).eps / sys.smallest_share
    if not math.isclose(total, 1.0, rel_tol=tol):
        raise PluripotError(f"trace identity violated: mass {total!r}")
    return DiscreteMeasure(mu.candidates, masses / total)
