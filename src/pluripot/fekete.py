"""Greedy + exchange search for weighted Fekete configurations.

The search is heuristic: a column-pivoted QR pass over the weighted
Vandermonde rectangle picks an initial configuration, and single-point
exchanges (rank-one determinant ratios) refine it to a local maximum of
the weighted Vandermonde modulus.  Global optimality is not claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import dimension_counts
from .domains import AdmissibleWeight, CandidateSet
from .errors import InvalidInputError
from .gram import DiscreteMeasure, _basis_columns
from .vdm import diameter_exponent, log_abs_weighted_vdm
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
    method: str

    def points(self, cand: CandidateSet) -> np.ndarray:
        return cand.points[list(self.indices)]


def greedy_fekete(
    cand: CandidateSet, n: int, weight: AdmissibleWeight
) -> FeketeConfiguration:
    """Pick N = m_n points by column-pivoted QR of the weighted rectangle."""
    q = weight(cand.points)
    _, amat = _basis_columns(cand.points, q, n)
    return _greedy(cand, n, weight, amat, q)


def _greedy(
    cand: CandidateSet,
    n: int,
    weight: AdmissibleWeight,
    amat: np.ndarray,
    q: np.ndarray,
) -> FeketeConfiguration:
    n_pts = dimension_counts(n, cand.dimension)[0]
    if len(cand) < n_pts:
        raise InvalidInputError(
            f"need at least {n_pts} candidates for degree {n}, got {len(cand)}"
        )
    usable = np.isfinite(q)
    if usable.sum() < n_pts:
        raise InvalidInputError(
            f"weight vanishes on too many candidates: {usable.sum()} < {n_pts}"
        )
    _, _, piv = scipy.linalg.qr(amat, mode="economic", pivoting=True)
    selected = tuple(int(i) for i in piv[:n_pts])
    logw = log_abs_weighted_vdm(cand.points[list(selected)], n, weight)
    if logw.is_zero:
        raise InvalidInputError("greedy selection is degenerate; enlarge the grid")
    return FeketeConfiguration(n, selected, logw.log_abs, "greedy")


def exchange_refine(
    cfg: FeketeConfiguration,
    cand: CandidateSet,
    weight: AdmissibleWeight,
    max_sweeps: int = 10,
) -> FeketeConfiguration:
    """One-point exchanges until a local maximum of log |W| (or sweep cap).

    The gain of swapping selected column j for candidate c is the modulus of
    (V^{-1} c)_j, so a whole row of gains costs one triangular solve.
    """
    if max_sweeps == 0:
        return cfg
    _, amat = _basis_columns(cand.points, weight(cand.points), cfg.degree)
    return _exchange(cfg, cand, weight, amat, max_sweeps)


def _exchange(
    cfg: FeketeConfiguration,
    cand: CandidateSet,
    weight: AdmissibleWeight,
    amat: np.ndarray,
    max_sweeps: int,
) -> FeketeConfiguration:
    n = cfg.degree
    selected = list(cfg.indices)
    n_sel = len(selected)
    vmat = amat[:, selected].copy()
    log_gain = 0.0
    for _ in range(max_sweeps):
        improved = False
        lu = scipy.linalg.lu_factor(vmat)
        for j in range(n_sel):
            ej = np.zeros(n_sel, dtype=amat.dtype)
            ej[j] = 1.0
            row = scipy.linalg.lu_solve(lu, ej, trans=1) @ amat
            gains = np.abs(row)
            gains[selected] = 0.0  # re-picking a selected point zeroes the det
            c = int(np.argmax(gains))
            if gains[c] > 0 and math.log(gains[c]) > EXCHANGE_TOL:
                log_gain += math.log(gains[c])
                selected[j] = c
                vmat[:, j] = amat[:, c]
                lu = scipy.linalg.lu_factor(vmat)
                improved = True
        if not improved:
            break
    # Without a swap the selection, and so its value, is the input's.
    value = (
        log_abs_weighted_vdm(cand.points[selected], n, weight).log_abs
        if log_gain else cfg.log_weighted_vdm
    )
    method = cfg.method if "exchange" in cfg.method else cfg.method + "+exchange"
    return FeketeConfiguration(n, tuple(selected), value, method)


def search_fekete(
    cand: CandidateSet,
    n: int,
    weight: AdmissibleWeight,
    max_sweeps: int = 10,
) -> FeketeConfiguration:
    """Greedy start followed by exchange refinement."""
    q = weight(cand.points)
    _, amat = _basis_columns(cand.points, q, n)
    cfg = _greedy(cand, n, weight, amat, q)
    return _exchange(cfg, cand, weight, amat, max_sweeps) if max_sweeps else cfg


def empirical_measure(
    cfg: FeketeConfiguration, cand: CandidateSet
) -> DiscreteMeasure:
    """Mass 1/N at each selected point (on the full candidate set)."""
    masses = np.zeros(len(cand))
    masses[list(cfg.indices)] = 1.0 / len(cfg.indices)
    return DiscreteMeasure(cand, masses)


def diameter_sequence(
    cand: CandidateSet,
    weight: AdmissibleWeight,
    n_max: int,
    max_sweeps: int = 10,
) -> list[dict]:
    """Per-degree diameter estimates from greedy+exchange configurations."""
    out = []
    for n in range(1, n_max + 1):
        cfg = search_fekete(cand, n, weight, max_sweeps)
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


def extrapolate_diameter(seq: list[dict], tail: int = 8) -> float:
    """Extrapolated limit of delta_n from the tail of the sequence.

    Fits log delta_n ~ a + b log(n)/n + c/n; the log(n)/n term captures the
    generic N^{O(1)/n} prefactor of finite-degree diameters.
    """
    pts = seq[-tail:] if len(seq) > tail else seq
    if len(pts) == 1:
        return pts[0]["delta_n"]
    ns = np.array([p["n"] for p in pts], dtype=float)
    ys = np.log(np.array([p["delta_n"] for p in pts]))
    cols = [np.ones_like(ns), np.log(ns) / ns, 1.0 / ns]
    design = np.column_stack(cols[: min(len(pts), 3)])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return float(np.exp(coef[0]))
