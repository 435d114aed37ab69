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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import dimension_counts
from .domains import AdmissibleWeight, CandidateSet
from .errors import InvalidInputError
from .gram import DiscreteMeasure, _basis_columns
from .vdm import _lapack, diameter_exponent, log_abs_weighted_vdm, pivoted_qr
# Unused here; bench/test_bench_harness.py checks the tracer rebinds it.
from .vdm import monomial_values  # noqa: F401

# Log-scale improvement below factorization noise is not worth a swap.
EXCHANGE_TOL = 1e-12


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
    max_sweeps: int = 10,
) -> FeketeConfiguration:
    """Greedy pick by pivoted QR, then up to max_sweeps exchange sweeps.

    A sweep offers each selected point j in turn its best swap and takes it
    when it raises log |W| by more than EXCHANGE_TOL; the search stops after
    a sweep without a swap.  max_sweeps = 0 returns the greedy pick.  The
    value is log |W| recomputed from the selected points, never read off C.
    """
    n_pts = dimension_counts(n, cand.dimension)[0]
    if len(cand) < n_pts:
        raise InvalidInputError(
            f"need at least {n_pts} candidates for degree {n}, got {len(cand)}"
        )
    q = weight(cand.points)
    usable = int(np.isfinite(q).sum())
    if usable < n_pts:
        raise InvalidInputError(
            f"weight vanishes on too many candidates: {usable} < {n_pts}"
        )
    r, piv = pivoted_qr(_basis_columns(cand.points, q, n), overwrite=True)
    logw = log_abs_weighted_vdm(cand.points[piv[:n_pts]], n, weight)
    if logw.is_zero:
        raise InvalidInputError("greedy selection is degenerate; enlarge the grid")
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
    swapped = False
    for _ in range(max_sweeps):
        improved = False
        for j in range(n_pts):
            gains = np.abs(coef[j])
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
        swapped = True
    indices = tuple(int(i) for i in piv[selected])
    # Without a swap the selection, and so its value, is the greedy pick's.
    value = (
        log_abs_weighted_vdm(cand.points[list(indices)], n, weight).log_abs
        if swapped else logw.log_abs
    )
    return FeketeConfiguration(n, indices, value)


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
    """Per-degree diameter estimates from greedy+exchange configurations."""
    out = []
    for n in range(1, n_max + 1):
        cfg = search_fekete(cand, n, weight)
        delta = math.exp(
            diameter_exponent(n, cand.dimension) * cfg.log_weighted_vdm
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
    generic N^{O(1)/n} prefactor of finite-degree diameters.
    """
    pts = seq[-8:]
    if len(pts) == 1:
        return pts[0]["delta_n"]
    ns = np.array([p["n"] for p in pts], dtype=float)
    ys = np.log(np.array([p["delta_n"] for p in pts]))
    cols = [np.ones_like(ns), np.log(ns) / ns, 1.0 / ns]
    design = np.column_stack(cols[: min(len(pts), 3)])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return float(np.exp(coef[0]))
