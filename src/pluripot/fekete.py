"""Greedy + exchange search for weighted Fekete configurations.

The search is heuristic and factors its weighted Vandermonde rectangle A
once.  A column-pivoted QR, A P = Q R, picks the initial configuration V
(the first N pivots: the approximate Fekete points of Bos, De Marchi,
Sommariva and Vianello).  The same R gives C = V^{-1} A = R11^{-1} R in
pivot order, whose entry |C_jc| is the factor by which |det V| changes when
selected point j is swapped for candidate c.  Single-point exchanges read
their gains from C and update it per swap by one Gauss-Jordan step, one
in-place BLAS rank-1 update (the "maxvol" update of Goreinov et al.), up to
a local maximum of the weighted Vandermonde modulus, not a global one.
optmeas runs the exchanges (``exchange``) on the QR of its greedy start.

A degree sequence evaluates Q and the basis once, at its top degree, and
searches each degree on the leading rows of that table; the greedy and
final values are log-determinants of the table's selected columns.  So a
sequence and single-degree searches agree to rounding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .basis import dimension_counts, enumerate_basis
from .domains import AdmissibleWeight, CandidateSet
from .errors import InvalidInputError
from .gram import EXCHANGE_TOL, DiscreteMeasure
from .vdm import _RANK_TOL, _lapack, _logdet_qr, diameter_exponent, monomial_values, pivoted_qr
from .vdm import relative_scales, weighted_columns

_MAX_SWEEPS = 10


@dataclass(frozen=True)
class FeketeConfiguration:
    """N selected candidate indices with their weighted log-VDM value."""

    degree: int
    indices: tuple[int, ...]
    log_weighted_vdm: float


def search_fekete(
    cand: CandidateSet,
    n: int,
    weight: AdmissibleWeight,
    max_sweeps: int = _MAX_SWEEPS,
) -> FeketeConfiguration:
    """Greedy pick by pivoted QR, then up to max_sweeps exchange sweeps
    (``exchange``; 0 returns the greedy pick).  The value is log |W|
    recomputed from the selected points, never read off C.

    Column x of A is vdm.weighted_columns' c_x e^(s_x - s_max), w^n relative
    to the largest, whatever the range of w^n itself.  Where some point of
    finite Q falls below the smallest normal float, the relative weights are
    floored at its square root: no column of finite Q is zero, and the
    points within that floor of the largest keep their exact ratios.
    """
    rows = monomial_values(enumerate_basis(n, cand.dimension), cand.points)
    return _search(rows, weight(cand.points), n, max_sweeps)


def _search(rows: np.ndarray, q: np.ndarray, n: int, max_sweeps: int) -> FeketeConfiguration:
    """search_fekete at degree n from the unweighted basis rows at the
    candidates and Q there."""
    n_pts, m = rows.shape
    if m < n_pts:
        raise InvalidInputError(f"need at least {n_pts} candidates for degree {n}, got {m}")
    finite = np.isfinite(q)
    if (usable := int(finite.sum())) < n_pts:
        raise InvalidInputError(f"weight vanishes on too many candidates: {usable} < {n_pts}")
    cols, scale = weighted_columns(rows, q, n)
    relative, _ = relative_scales(scale)  # 0 where Q = +inf
    if (relative[finite] < sys.float_info.min).any():
        relative[finite] = np.maximum(relative[finite], math.sqrt(sys.float_info.min))
    # Fortran order lets geqp3 factor the columns in place, without a copy.
    r, piv = pivoted_qr(np.multiply(cols, relative, order="F"), overwrite=True)
    greedy = _logdet_qr(cols[:, piv[:n_pts]], scale[piv[:n_pts]]).log_abs
    if greedy == -math.inf:
        raise InvalidInputError(
            f"the greedy {n_pts}-point pick at degree {n} is numerically singular under the"
            f" rank rule (an R diagonal entry at most {_RANK_TOL:g} of the largest): the basis"
            f" may be too ill-conditioned at this degree, or no {n_pts}-point subset is unisolvent")
    chosen = exchange(r, piv, max_sweeps)
    # Without a swap the selection, and so its value, is the greedy pick's.
    swapped = not np.array_equal(chosen, piv[:n_pts])
    value = _logdet_qr(cols[:, chosen], scale[chosen]).log_abs if swapped else greedy
    return FeketeConfiguration(n, tuple(int(i) for i in chosen), value)


def exchange(r: np.ndarray, piv: np.ndarray, max_sweeps: int = _MAX_SWEEPS) -> np.ndarray:
    """The pick of up to max_sweeps sweeps from piv[:N], given pivoted_qr's
    (factor r, piv) of the N x M columns, M >= N; r is overwritten.  A sweep
    offers each selected point j in turn its best swap and takes it when it
    raises log |W| by more than EXCHANGE_TOL, until a sweep without one."""
    n_pts, m = r.shape
    # R has n_pts rows, so geqp3 keeps Householder vectors only below the
    # diagonal of R11, its leading n_pts columns.
    r[np.tril_indices(n_pts, -1)] = 0.0
    # C = R11^{-1} R in pivot order, as the right-side solve
    # C^T = R^T R11^{-T} (R11 copied first): the solve's Fortran-ordered copy
    # of R^T is the one copy of R, C's rows are contiguous, and ger updates
    # coef.T (column-major C^T) in place, with a copy of row j as x (not
    # aliased).
    trsm, ger = _lapack("trsm", r), _lapack("geru" if np.iscomplexobj(r) else "ger", r)
    coef = trsm(1.0, r[:, :n_pts].copy(), r.T, side=1, trans_a=1, overwrite_b=True).T
    selected = np.arange(n_pts)  # positions in pivot order
    gains = np.empty(m)
    for _ in range(max_sweeps):
        improved = False
        for j in range(n_pts):
            np.abs(coef[j], out=gains)
            gains[selected] = 0.0  # re-picking a selected point zeroes the det
            best = gains.max()
            if best > 0 and math.log(best) > EXCHANGE_TOL:
                # Gains within EXCHANGE_TOL of the best are ties, which
                # rounding in C must not break: the lowest candidate wins.
                tied = np.flatnonzero(gains >= best * math.exp(-EXCHANGE_TOL))
                c = int(tied[np.argmin(piv[tied])])
                # One Gauss-Jordan step: column c of C becomes e_j.
                coef[j] /= coef[j, c]
                col = coef[:, c].copy()
                col[j] = 0.0
                ger(-1.0, coef[j].copy(), col, a=coef.T, overwrite_a=True)
                selected[j] = c
                improved = True
        if not improved:
            break
    return piv[selected]


def empirical_measure(
    cfg: FeketeConfiguration, cand: CandidateSet
) -> DiscreteMeasure:
    """Mass 1/N at each selected point (on the full candidate set)."""
    masses = np.zeros(len(cand))
    masses[list(cfg.indices)] = 1.0 / len(cfg.indices)
    return DiscreteMeasure(cand, masses)


def diameter_sequence(
    cand: CandidateSet, weight: AdmissibleWeight, n_max: int
) -> list[dict]:
    """Per-degree diameter estimates from greedy+exchange configurations.

    Q and the degree-n_max basis are evaluated once: in graded-lex order the
    degree-n basis is the first m_n rows, which each degree's search takes.
    """
    d = cand.dimension
    q = weight(cand.points)
    rows = monomial_values(enumerate_basis(n_max, d), cand.points)
    out = []
    for n in range(1, n_max + 1):
        cfg = _search(rows[: dimension_counts(n, d)[0]], q, n, _MAX_SWEEPS)
        delta = math.exp(
            diameter_exponent(n, d) * cfg.log_weighted_vdm
        )
        out.append(
            {
                "n": n,
                "N": len(cfg.indices),
                "log_vdm": cfg.log_weighted_vdm,
                "delta_n": delta,
                "indices": list(cfg.indices),
            }
        )
    return out


def extrapolate_diameter(seq: list[dict]) -> float:
    """Extrapolated limit of delta_n from the last eight degrees of the sequence.

    Fits log delta_n ~ a + b log(n)/n + c/n; the log(n)/n term captures the
    generic N^{O(1)/n} prefactor of finite-degree diameters.  Two degrees
    fit a + c/n alone: log(n)/n vanishes at n = 1, so with the two columns
    [1, log(n)/n] the fit would return delta_1.
    """
    pts = seq[-8:]
    if len(pts) == 1:
        return pts[0]["delta_n"]
    ns = np.array([p["n"] for p in pts], dtype=float)
    ys = np.log(np.array([p["delta_n"] for p in pts]))
    cols = [np.ones_like(ns), np.log(ns) / ns, 1.0 / ns]
    design = np.column_stack(cols if len(pts) > 2 else cols[::2])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return float(np.exp(coef[0]))
