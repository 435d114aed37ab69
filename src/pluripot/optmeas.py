"""Optimal measures of degree n (D-optimal designs) with KW certificates.

A probability measure maximizes det G_n iff its Bergman function tops out
at N on K; the gap max_K B - N is the optimality certificate, and
vertex-exchange (Wolfe-Atwood toward/away) steps drive it to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import AdmissibleWeight, CandidateSet
from .errors import InvalidInputError, NotConvergedError
from .gram import DiscreteMeasure, GramSystem, bergman_function, gram_matrix
from .gram import _basis_columns, _bergman_from_columns, _gram_from_columns
from .vdm import diameter_exponent

DEFAULT_TOL = 1e-6
MASS_FLOOR = 1e-10
# Masses below the floor are zeroed-and-renormalized this often.
CLEAN_PERIOD = 100


def kw_gap(
    mu: DiscreteMeasure, weight: AdmissibleWeight, n: int
) -> tuple[float, np.ndarray]:
    """(max_K B - N, argmax point); zero gap certifies D-optimality."""
    points = mu.candidates.points
    sys = gram_matrix(mu, weight, n)
    b = bergman_function(sys, points)
    k = int(np.argmax(b))
    return float(b[k] - sys.size), points[k]


@dataclass
class SolveReport:
    measure: DiscreteMeasure
    n: int
    iterations: int
    kw_gap: float
    log_det: float
    converged: bool

    def to_dict(self) -> dict:
        hist, edges = np.histogram(self.measure.masses, bins=10, range=(0.0, 1.0))
        return {
            "n": self.n,
            "algo": "vertex_exchange",
            "iterations": self.iterations,
            "kw_gap": self.kw_gap,
            "log_det": self.log_det,
            "converged": self.converged,
            "mass_histogram": {
                "counts": hist.tolist(),
                "edges": edges.tolist(),
            },
        }


def _vertex_step(masses: np.ndarray, b: np.ndarray, n_dim: int) -> np.ndarray:
    """One exchange step: mix toward delta_z along the better of two moves.

    For mu_t = (1-t) mu + t delta_z, log det gains
    N log(1-t) + log(1 + t B(z) / (1-t)), maximized at
    t* = (B - N) / (N (B - 1)); t* < 0 removes mass from a support point
    with B < N, and both moves use the same formula.
    """

    def gain(bk: float, t: float) -> float:
        return n_dim * np.log1p(-t) + np.log1p(t * bk / (1.0 - t))

    k_add = int(np.argmax(b))
    t_add = (b[k_add] - n_dim) / (n_dim * (b[k_add] - 1.0))
    t_add = min(max(t_add, 0.0), 1.0 - 1e-12)

    support = np.nonzero(masses > 0)[0]
    k_rem = int(support[np.argmin(b[support])])
    denom = n_dim * (b[k_rem] - 1.0)
    t_rem = (b[k_rem] - n_dim) / denom if denom > 0 else -np.inf
    # Full removal of point k corresponds to t = -m_k / (1 - m_k).
    t_rem = max(t_rem, -masses[k_rem] / max(1.0 - masses[k_rem], 1e-300))

    if gain(b[k_rem], t_rem) > gain(b[k_add], t_add):
        k, t = k_rem, t_rem
    else:
        k, t = k_add, t_add
    out = (1.0 - t) * masses
    out[k] += t
    return np.maximum(out, 0.0)


def _clean(masses: np.ndarray) -> np.ndarray:
    masses = np.where(masses < MASS_FLOOR, 0.0, masses)
    return masses / masses.sum()


def solve_optimal_measure(
    cand: CandidateSet,
    weight: AdmissibleWeight,
    n: int,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    raise_on_cap: bool = False,
) -> SolveReport:
    """Drive kw_gap/N below tol starting from the uniform measure.

    Each step is a vertex exchange (``_vertex_step``): mass moves toward the
    argmax of B, or away from the support point with the smallest B, with the
    exact line-search step on log det.
    """
    q = weight(cand.points)
    masses = np.isfinite(q).astype(float)
    if masses.sum() == 0:
        raise InvalidInputError("weight vanishes on the whole candidate set")
    masses = masses / masses.sum()
    if max_iter is None:
        max_iter = 10 * len(cand) * max(n, 1) * (n + 1)

    indices, cols = _basis_columns(cand.points, q, n)
    sys: GramSystem | None = None
    gap = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        sys = _gram_from_columns(indices, cols, masses, weight, n)
        b = _bergman_from_columns(sys, cols)
        n_dim = sys.size
        gap = float(b.max() - n_dim)
        if gap / n_dim <= tol:
            break
        masses = _vertex_step(masses, b, n_dim)
        masses = masses / masses.sum()
        if it % CLEAN_PERIOD == 0:
            masses = _clean(masses)
    converged = gap / sys.size <= tol
    report = SolveReport(
        measure=DiscreteMeasure(cand, masses),
        n=n,
        iterations=it,
        kw_gap=gap,
        log_det=sys.log_det,
        converged=converged,
    )
    if not converged and raise_on_cap:
        raise NotConvergedError(
            f"kw_gap/N = {gap / sys.size:.3e} > tol after {it} iterations",
            partial=report,
        )
    return report


def support_certificate(
    mu: DiscreteMeasure,
    weight: AdmissibleWeight,
    n: int,
    tol: float = DEFAULT_TOL,
) -> dict:
    """B values on the support; at optimality they all equal N."""
    sys = gram_matrix(mu, weight, n)
    support = np.nonzero(mu.masses > MASS_FLOOR)[0]
    b = bergman_function(sys, mu.candidates.points[support])
    n_dim = sys.size
    violations = [
        {"index": int(i), "B": float(bv), "mass": float(mu.masses[i])}
        for i, bv in zip(support, b)
        if abs(bv - n_dim) > tol * n_dim
    ]
    return {
        "n": n,
        "N": n_dim,
        "support_indices": [int(i) for i in support],
        "B_values": [float(v) for v in b],
        "violations": violations,
    }


def optimal_det_sequence(
    cand: CandidateSet,
    weight: AdmissibleWeight,
    n_max: int,
    tol: float = DEFAULT_TOL,
) -> list[dict]:
    """Normalized log-det of optimal Grams per degree (trend to log delta^w)."""
    out = []
    for n in range(1, n_max + 1):
        rep = solve_optimal_measure(cand, weight, n, tol=tol)
        out.append(
            {
                "n": n,
                "normalized_log_det": (
                    diameter_exponent(n, cand.dimension) / 2 * rep.log_det
                ),
                "kw_gap": rep.kw_gap,
                "converged": rep.converged,
                "iterations": rep.iterations,
            }
        )
    return out
