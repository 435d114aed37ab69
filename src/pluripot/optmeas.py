"""Optimal measures of degree n (D-optimal designs) with KW certificates.

A probability measure maximizes det G_n iff its Bergman function tops out
at N on K; the gap max_K B - N is the optimality certificate.  Pairwise
vertex exchanges (Boehning 1986) drive it to zero: each moves mass between
two nodes with a closed-form step, and a sweep of them shares one Cholesky
factorization of the Gram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import AdmissibleWeight, CandidateSet
from .errors import InvalidInputError, NotConvergedError
from .gram import DiscreteMeasure, GramSystem, bergman_function, gram_matrix
from .gram import _basis_columns, _gram_from_columns, _whitened_columns
from .vdm import diameter_exponent

DEFAULT_TOL = 1e-6
MASS_FLOOR = 1e-10


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


def _exchange_sweep(masses: np.ndarray, y: np.ndarray, b: np.ndarray) -> None:
    """One deterministic sweep of pairwise exchanges, updating masses in place.

    The sweep visits S = support + the N nodes of largest B once each, in
    increasing B (stable ties).  Node i trades mass with the partner j in S
    whose exact exchange gains most: moving t from i to j turns the whitened
    Gram A (the identity at the sweep's start) into
    A + t (y_j y_j^* - y_i y_i^*), which multiplies det G by
    1 + t (B_j - B_i) - t^2 (B_j B_i - |h_ij|^2), with B and
    h_ij = y_i^* A^-1 y_j at the current A.  The best t is clipped to
    [-m_j, m_i], so a drop step zeroes a mass exactly, and W = A^-1 Y_S
    follows by a 2 x 2 Woodbury update.
    """
    n_dim = y.shape[0]
    top = np.argsort(-b, kind="stable")[:n_dim]
    s = np.union1d(np.nonzero(masses)[0], top)
    s = s[np.argsort(b[s], kind="stable")]
    ys = y[:, s]
    ys_h = ys.conj()
    w = ys.copy()
    m = masses[s]
    for i in range(len(s)):
        bs = np.einsum("ij,ij->j", ys_h, w).real
        h = ys_h[:, i] @ w
        d = bs - bs[i]
        curv = bs * bs[i] - np.abs(h) ** 2
        # A flat direction (curv 0, up to rounding) runs to the bound.
        t = np.where(d > 0, np.inf, -np.inf)
        np.divide(d, 2.0 * curv, out=t, where=curv > 0)
        t = np.clip(t, -m, m[i])
        gain = t * d - t * t * curv
        gain[i] = 0.0
        j = int(np.argmax(gain))
        if not gain[j] > 0:
            continue
        tj, bj, bi, hij = t[j], bs[j], bs[i], h[j]
        m[j] = 0.0 if tj == -m[j] else m[j] + tj
        m[i] = 0.0 if tj == m[i] else m[i] - tj
        # (A + U T U^*)^-1 = A^-1 - V (I + T M)^-1 T V^*, with U = [y_j, y_i],
        # T = diag(t, -t), V = A^-1 U and M = U^* V; det(I + T M) >= 1 is the
        # det G ratio of the step.
        det = (1.0 + tj * bj) * (1.0 - tj * bi) + tj * tj * abs(hij) ** 2
        p = np.array(
            [
                [tj * (1.0 - tj * bi), tj * tj * np.conj(hij)],
                [tj * tj * hij, -tj * (1.0 + tj * bj)],
            ]
        ) / det
        v = w[:, [j, i]]
        w -= v @ (p @ np.stack([ys_h[:, j] @ w, h]))
    masses[s] = m


def solve_optimal_measure(
    cand: CandidateSet,
    weight: AdmissibleWeight,
    n: int,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    raise_on_cap: bool = False,
) -> SolveReport:
    """From the uniform measure, drive max_K B to at most N(1 + tol) and B on
    the support (masses > MASS_FLOOR) to at least N(1 - tol): ``converged``.

    An iteration factors the Gram once, computes B from it (only this fresh
    B decides kw_gap, convergence and the reported log det), then runs one
    pairwise-exchange sweep (``_exchange_sweep``; Boehning 1986, batched as in
    REX, Harman-Filova-Richtarik 2020).
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
        y = _whitened_columns(sys, cols)
        b = np.sum(np.abs(y) ** 2, axis=0)
        gap = float(b.max() - sys.size)
        deficit = float(sys.size - b[masses > MASS_FLOOR].min())
        converged = max(gap, deficit) / sys.size <= tol
        if converged or it == max_iter:
            break
        _exchange_sweep(masses, y, b)
        masses = masses / masses.sum()
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
            f"kw_gap/N = {gap / sys.size:.3e}, support deficit/N = "
            f"{deficit / sys.size:.3e}: not both <= tol after {it} iterations",
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
