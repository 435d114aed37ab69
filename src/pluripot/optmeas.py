"""Optimal measures of degree n (D-optimal designs) with KW certificates.

A probability measure maximizes det G_n iff its Bergman function tops out
at N on K (Kiefer-Wolfowitz 1960); the gap max_K B - N is the optimality
certificate.  Pairwise vertex exchanges (Boehning 1986) drive it to zero:
each moves mass between two nodes with a closed-form step, and a sweep of
them shares one Cholesky factorization of the Gram; a Newton step on the
support masses after each sweep cuts their linear tail.  A solve starts
from the greedy Fekete pick (the first N pivots of a column-pivoted QR)
when it beats the uniform measure, and where that start misses, from the
Fekete search's pick (fekete.exchange on that QR) if better; in d = 1,
equal masses on the Fekete points are optimal (Guest 1958).  The report
carries the certificate of the last iterate's B (one B per iterate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import AdmissibleWeight, CandidateSet
from .errors import DegenerateMeasureError, InvalidInputError
from .gram import DiscreteMeasure
from .gram import _basis_columns, _factor, _system
from .vdm import _lapack, pivoted_qr

DEFAULT_TOL = 1e-6
MASS_FLOOR = 1e-10


@dataclass(frozen=True)
class SolveReport:
    """The solve's last iterate, with the certificate of its fresh B.

    ``certificate`` holds B at the support nodes (masses > MASS_FLOOR) and
    the nodes where |B - N| > tol N; a converged solve has none.
    """

    measure: DiscreteMeasure
    n: int
    iterations: int
    kw_gap: float
    log_det: float
    converged: bool
    certificate: dict

    def to_dict(self) -> dict:
        """The v1 ``optmeas`` report entry of this degree."""
        # np.histogram's ten bins [e_k, e_k+1) on [0, 1], the last closed.
        masses, edges = self.measure.masses, np.linspace(0.0, 1.0, 11)
        hist = np.bincount(np.searchsorted(edges, masses, "right") - (masses == 1.0), minlength=12)
        return {
            "n": self.n,
            "algo": "vertex_exchange",
            "iterations": self.iterations,
            "kw_gap": self.kw_gap,
            "log_det": self.log_det,
            "converged": self.converged,
            "mass_histogram": {"counts": hist[1:11].tolist(), "edges": edges.tolist()},
            "certificate": self.certificate,
            "masses": masses.tolist(),
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
    follows by a 2 x 2 Woodbury update.  The steps reuse buffers allocated
    once per sweep and run, in the same order, the floating-point operations
    of the straightforward form with a fresh array each: the same masses.
    """
    n_dim = y.shape[0]
    top = np.argsort(-b, kind="stable")[:n_dim]
    s = np.union1d(np.nonzero(masses)[0], top)
    s = s[np.argsort(b[s], kind="stable")]
    ys = y[:, s]
    ys_h = ys.conj()
    rows = ys_h.T.copy()
    w = ys.copy()
    m, k = masses[s], len(s)
    b_s, p, v, blk, pblk, dw = (np.empty(shape, y.dtype) for shape in
                                (k, (2, 2), (n_dim, 2), (2, k), (2, k), w.shape))
    bs, h = b_s.real, blk[1]
    (d, curv, u, gain, tmp), pos = np.empty((5, k)), np.empty(k, bool)
    for i in range(k):
        np.einsum("ij,ij->j", ys_h, w, out=b_s)
        np.matmul(rows[i], w, out=h)
        bi, mi = bs.item(i), m.item(i)
        # u = -t, as copysign(inf, B_i - B_j) is -inf just where t starts at inf.
        np.copysign(np.inf, np.subtract(bi, bs, out=d), out=u)
        np.multiply(bs, bi, out=curv)
        np.subtract(curv, np.square(np.abs(h, out=tmp), out=tmp), out=curv)
        # A flat direction (curv 0, up to rounding) runs to the bound.
        np.greater(curv, 0.0, out=pos)
        np.divide(d, np.add(curv, curv, out=tmp), out=u, where=pos)
        np.minimum(np.maximum(u, -mi, out=u), m, out=u)
        np.multiply(u, d, out=gain)
        np.subtract(gain, np.multiply(np.square(u, out=tmp), curv, out=tmp), out=gain)
        gain[i] = 0.0
        j = int(gain.argmax())
        if not gain[j] > 0:
            continue
        tj, bj, hij = -u.item(j), bs.item(j), h.item(j)
        m[j] = 0.0 if tj == -m[j] else m[j] + tj
        m[i] = 0.0 if tj == mi else mi - tj
        # (A + U T U^*)^-1 = A^-1 - V (I + T M)^-1 T V^*, with U = [y_j, y_i],
        # T = diag(t, -t), V = A^-1 U and M = U^* V; det(I + T M) >= 1 is the
        # det G ratio of the step.
        det = (1.0 + tj * bj) * (1.0 - tj * bi) + tj * tj * abs(hij) ** 2
        p[0, 0], p[0, 1] = tj * (1.0 - tj * bi), tj * tj * hij.conjugate()
        p[1, 0], p[1, 1] = tj * tj * hij, -tj * (1.0 + tj * bj)
        np.divide(p, det, out=p)
        np.matmul(rows[j], w, out=blk[0])
        w.take((j, i), axis=1, out=v, mode="clip")  # "raise" would buffer v
        w -= np.matmul(v, np.matmul(p, blk, out=pblk), out=dw)
    masses[s] = m


def _gain(cols: np.ndarray, masses: np.ndarray, log_det: float, spec: tuple):
    """The Gram system _system(_factor(cols, masses), *spec) where it passes
    the pivot check with a log det above log_det, else None."""
    try:
        sys = _system(_factor(cols, masses), *spec)
    except DegenerateMeasureError:
        return None
    return sys if sys.log_det > log_det else None


def _newton_step(masses: np.ndarray, cols: np.ndarray, spec: tuple):
    """One Newton step on the support masses S from their Gram: dx
    maximizes log det's second-order model B_S . dx - dx^T |H_S|^2 dx / 2
    (H_S = Y_S^* Y_S, Y_S = L^-1 C_S) over sum dx = 0, by least squares on
    the KKT system, so a singular |H_S|^2 gives the minimum-norm step.  It
    is cut where the first mass reaches 0 and halved at most twice until log
    det rises ("optimal weights", Yang-Biedermann-Tan 2013)."""
    sys = _system(_factor(cols, masses), *spec)
    s = np.nonzero(masses)[0]
    m = masses[s]
    ys = _lapack("trtrs", sys.chol, cols)(sys.chol, cols[:, s], lower=1)[0]
    h = ys.conj().T @ ys
    kkt = np.ones((len(s) + 1,) * 2)
    kkt[:-1, :-1], kkt[-1, -1] = np.abs(h) ** 2, 0.0
    dx = np.linalg.lstsq(kkt, np.append(h.diagonal().real, 0.0), rcond=None)[0][:-1]
    reach = np.full(len(s), np.inf)
    np.divide(m, -dx, out=reach, where=dx < 0)
    first = int(reach.argmin())
    cut = min(1.0, reach[first])
    for step in (cut, cut / 2, cut / 4):
        trial = np.zeros_like(masses)
        trial[s] = np.maximum(m + step * dx, 0.0)
        if step == reach[first]:
            trial[s[first]] = 0.0
        trial /= trial.sum()
        if (new := _gain(cols, trial, sys.log_det, spec)) is not None:
            return trial, new
    return masses, sys


def solve_optimal_measure(
    cand: CandidateSet,
    weight: AdmissibleWeight,
    n: int,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> SolveReport:
    """Drive max_K B to at most N(1 + tol) and B on the support (masses >
    MASS_FLOOR) to at least N(1 - tol): ``converged``.  The start is equal
    mass on the greedy Fekete pick when its Gram passes the pivot check with
    a log det above the uniform measure's, else the uniform measure; where
    its first iterate misses, fekete.exchange's pick on the same QR (the
    search's pick at this n and Q) replaces it on the same terms.

    An iteration factors the Gram once, computes B from it (only this fresh
    B decides kw_gap, convergence, the certificate and the reported log det),
    then runs one pairwise-exchange sweep (``_exchange_sweep``; Boehning
    1986, batched as in REX, Harman-Filova-Richtarik 2020) and one
    ``_newton_step``, whose Gram is the next iteration's.
    """
    q = weight(cand.points)
    masses = np.isfinite(q).astype(float)
    if masses.sum() == 0:
        raise InvalidInputError("weight vanishes on the whole candidate set")
    masses = masses / masses.sum()
    if max_iter is None:
        max_iter = 10 * len(cand) * max(n, 1) * (n + 1)
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")

    cols, top = _basis_columns(cand.points, q, n)
    n_dim = len(cols)
    spec = (cand.dimension, weight, n, n_dim, top)
    sys = _system(_factor(cols, masses), *spec)
    factor, piv = pivoted_qr(cols)
    greedy = np.zeros(len(masses))
    greedy[piv[:n_dim]] = 1.0 / n_dim
    if (start := _gain(cols, greedy, sys.log_det, spec)) is not None:
        masses, sys = greedy, start
    trtrs = _lapack("trtrs", sys.chol, cols)  # pivoted_qr refused inf and NaN
    for it in range(1, max_iter + 1):
        y = trtrs(sys.chol, cols, lower=1)[0]
        b = np.sum(np.abs(y) ** 2, axis=0)
        support = np.nonzero(masses > MASS_FLOOR)[0]
        gap = float(b.max() - n_dim)
        deficit = float(n_dim - b[support].min())
        converged = max(gap, deficit) / n_dim <= tol
        if converged or it == max_iter:
            break
        if it == 1:
            from .fekete import exchange  # loaded on a missed start
            pick = np.zeros(len(masses))
            pick[exchange(factor, piv)] = 1.0 / n_dim
            if (start := _gain(cols, pick, sys.log_det, spec)) is not None:
                masses, sys = pick, start
                y = trtrs(sys.chol, cols, lower=1)[0]
                b = np.sum(np.abs(y) ** 2, axis=0)
        _exchange_sweep(masses, y, b)
        masses, sys = _newton_step(masses / masses.sum(), cols, spec)
    certificate = {
        "n": n,
        "N": n_dim,
        "support_indices": support.tolist(),
        "B_values": b[support].tolist(),
        "violations": [
            {"index": int(i), "B": float(b[i]), "mass": float(masses[i])}
            for i in support
            if abs(b[i] - n_dim) > tol * n_dim
        ],
    }
    return SolveReport(
        measure=DiscreteMeasure(cand, masses),
        n=n,
        iterations=it,
        kw_gap=gap,
        log_det=sys.log_det,
        converged=converged,
        certificate=certificate,
    )
