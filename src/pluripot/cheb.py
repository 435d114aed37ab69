"""Directional Chebyshev constants and the homogeneous lift.

The discrete minimax over a candidate grid is solved as a linear program:
the complex modulus is outer-approximated by half-plane facets, and facets
are added at the phases where the current polynomial peaks until the
re-evaluated maximum matches the LP bound.  Reported values are therefore
true achieved maxima of an explicit polynomial: upper bounds on the
continuous optimum over the grid, within 1e-9 relative when the record's
``converged`` is true.  A refinement that stops at ``_REFINE_ROUNDS`` says
so with ``converged`` false.  HiGHS's feasibility tolerances are absolute,
so a small minimax value can cap: ``circle(0.5, 201)`` does at k = 5 and
7-10, with a worst relative error of 4.3e-8.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import dimension_counts, enumerate_basis
from .domains import AdmissibleWeight, CandidateSet, weight_power
from .errors import InvalidInputError, PluripotError
from .fekete import search_fekete
from .vdm import _logdet_qr, diameter_exponent, homogeneous_basis, monomial_values

CLASSES = ("plain", "homogeneous", "weighted")
INITIAL_FACETS = 16
_REFINE_ROUNDS = 60
_REFINE_TOL = 1e-9
# HiGHS's default feasibility tolerances (1e-7, absolute) leave the LP bound
# s_opt too loose for the _REFINE_TOL stopping test, and refinement runs to
# the round cap.  1e-10 is the smallest tolerance HiGHS accepts.  A dual
# tolerance of 1e-10 too made HiGHS fail on the first LP of two of 400 swept
# circle cases (m <= 400, 0.5 <= r <= 2, k <= 10); 1e-9 failed on none.
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-9,
}
# Matrix entries per batched slogdet in the exhaustive lift check, so a
# chunk's memory does not grow with the subset size N.
_CHUNK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class ChebyshevRecord:
    """Minimal sup-norm over a monic polynomial class, with its witness.

    ``converged`` is false when the LP refinement stopped at its round cap.
    """

    alpha: tuple[int, ...]
    class_tag: str
    value: float
    tau: float
    coefficients: np.ndarray = field(repr=False)
    converged: bool


def _class_monomials(alpha: tuple[int, ...], d: int, class_tag: str):
    """Monomials that may be recombined with e_alpha, per class rules."""
    deg = sum(alpha)
    full = enumerate_basis(deg, d).indices
    start = 0
    if class_tag == "homogeneous":
        start = len(full) - dimension_counts(deg, d)[1]  # the degree-deg block
    return full[start:full.index(alpha)]


def linprog(*args, **kwargs):
    """scipy's ``linprog``, imported on the first LP: scipy.optimize is slow to load."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def _solve_minimax(
    target: np.ndarray, lower: np.ndarray, scale: np.ndarray
) -> tuple[float, np.ndarray, bool]:
    """min over c of max_k scale_k |target_k + lower_k . c|.

    Returns (achieved max, c, converged). ``lower`` is (M, J); converged is
    false when the refinement stopped at ``_REFINE_ROUNDS``.
    """
    m, j = lower.shape
    keep = scale > 0
    t = target[keep] * scale[keep]
    e = lower[keep] * scale[keep, None]
    if j == 0:
        return float(np.max(np.abs(t))), np.zeros(0, dtype=complex), True

    real_case = (
        np.max(np.abs(t.imag)) == 0.0 and np.max(np.abs(e.imag), initial=0.0) == 0.0
    )
    if real_case:
        phases = [np.zeros(len(t)), np.full(len(t), np.pi)]
    else:
        phases = [np.full(len(t), 2 * np.pi * f / INITIAL_FACETS)
                  for f in range(INITIAL_FACETS)]

    rows_a: list[np.ndarray] = []
    rows_b: list[np.ndarray] = []

    def add_facets(theta: np.ndarray, idx: np.ndarray) -> None:
        rot = np.exp(-1j * theta)[:, None]
        ee = e[idx] * rot
        block = np.concatenate(
            [ee.real, -ee.imag, -np.ones((len(idx), 1))], axis=1
        )
        rows_a.append(block)
        rows_b.append(-(t[idx] * rot[:, 0]).real)

    all_idx = np.arange(len(t))
    for th in phases:
        add_facets(th, all_idx)

    cost = np.zeros(2 * j + 1)
    cost[-1] = 1.0
    bounds = [(None, None)] * (2 * j) + [(0, None)]
    c_best = np.zeros(j, dtype=complex)
    converged = False
    for _ in range(_REFINE_ROUNDS):
        res = linprog(
            cost,
            A_ub=np.concatenate(rows_a),
            b_ub=np.concatenate(rows_b),
            bounds=bounds,
            method="highs",
            options=_HIGHS_OPTIONS,
        )
        if res.status != 0:
            raise PluripotError(f"minimax LP failed: {res.message}")
        x = res.x
        c_best = x[:j] + 1j * x[j : 2 * j]
        s_opt = x[-1]
        vals = t + e @ c_best
        r = np.abs(vals)
        peak = float(r.max())
        if real_case or peak <= s_opt * (1 + _REFINE_TOL) + 1e-300:
            converged = True
            break
        cut = np.nonzero(r > s_opt * (1 + 1e-12))[0]
        add_facets(np.angle(vals[cut]), cut)
    return peak, c_best, converged


def chebyshev_constant(
    cand: CandidateSet,
    alpha: tuple[int, ...],
    class_tag: str = "plain",
    weight: AdmissibleWeight | None = None,
) -> ChebyshevRecord:
    """Discrete Chebyshev constant Y(alpha) on the candidate grid."""
    if class_tag not in CLASSES:
        raise InvalidInputError(f"unknown class {class_tag!r}")
    alpha = tuple(int(a) for a in alpha)
    d = cand.dimension
    if len(alpha) != d:
        raise InvalidInputError("multi-index length must match the dimension")
    deg = sum(alpha)
    if deg == 0:
        raise InvalidInputError("degree-0 monomial has an empty class")
    if class_tag == "weighted":
        if weight is None:
            raise InvalidInputError("weighted class needs a weight")
        scale = weight_power(weight(cand.points), deg)
    else:
        scale = np.ones(len(cand))
    target = monomial_values([alpha], cand.points)[0]
    lower = monomial_values(_class_monomials(alpha, d, class_tag), cand.points).T
    value, coeffs, converged = _solve_minimax(target, lower, scale)
    return ChebyshevRecord(
        alpha=alpha,
        class_tag=class_tag,
        value=value,
        tau=value ** (1.0 / deg),
        coefficients=coeffs,
        converged=converged,
    )


def submultiplicativity_audit(
    records: list[ChebyshevRecord], slack: float = 1e-9
) -> list[dict]:
    """Flag pairs with Y(a+b) > Y(a) Y(b) (1 + slack); should be empty."""
    by_alpha: dict[tuple, ChebyshevRecord] = {}
    for rec in records:
        by_alpha[rec.alpha] = rec
    violations = []
    alphas = sorted(by_alpha)
    for a, b in itertools.combinations_with_replacement(alphas, 2):
        ab = tuple(x + y for x, y in zip(a, b))
        if ab not in by_alpha:
            continue
        lhs = by_alpha[ab].value
        rhs = by_alpha[a].value * by_alpha[b].value
        if lhs > rhs * (1 + slack):
            violations.append(
                {"alpha": list(a), "beta": list(b), "lhs": lhs, "rhs": rhs}
            )
    return violations


def tau_geometric_mean(
    cand: CandidateSet,
    weight: AdmissibleWeight | None,
    class_tag: str,
    n: int,
) -> tuple[float, list[ChebyshevRecord]]:
    """Geometric mean of tau(alpha) over the degree-n block."""
    if n < 1:
        raise InvalidInputError("degree must be >= 1")
    block = homogeneous_basis(n, cand.dimension).indices
    records = [chebyshev_constant(cand, a, class_tag, weight) for a in block]
    logs = [math.log(r.tau) for r in records]
    return math.exp(sum(logs) / len(logs)), records


def homogeneous_lift(
    cand: CandidateSet,
    weight: AdmissibleWeight,
    m_t: int,
) -> tuple[CandidateSet, int]:
    """Points (t, t*lambda) with |t| = w(lambda), m_t phases per base point.

    Returns the lifted set in C^{d+1} and the number of dropped (w = 0)
    base points.
    """
    if m_t < 1:
        raise InvalidInputError("phase resolution must be >= 1")
    q = weight(cand.points)
    keep = np.isfinite(q)
    dropped = int((~keep).sum())
    if keep.sum() == 0:
        raise InvalidInputError("weight vanishes on every candidate point")
    w = weight_power(q[keep], 1)
    lam = cand.points[keep]
    phases = np.exp(2j * np.pi * np.arange(m_t) / m_t)
    t = (w[:, None] * phases[None, :]).ravel()
    base = np.repeat(lam, m_t, axis=0)
    lifted = np.column_stack([t, base * t[:, None]])
    return CandidateSet(cand.dimension + 1, lifted, None, "custom"), dropped


def _combination(rank: int, m: int, count: int) -> list[int]:
    """The rank-th count-subset of range(m) in lexicographic order."""
    combo, x = [], 0
    for slot in range(count, 0, -1):
        while (skip := math.comb(m - x - 1, slot - 1)) <= rank:
            rank -= skip
            x += 1
        combo.append(x)
        x += 1
    return combo


def _exhaustive_max(cols: np.ndarray, count: int, n: int, q: np.ndarray) -> float:
    """Max of log |det cols[:, S]| - n * sum Q(S) over count-subsets S.

    Subsets are scored in lexicographic chunks, one batched LU ``slogdet``
    per chunk.  The value reported is the pivoted QR of the best-scoring
    subset, whose rank rule alone judges singularity: if it rejects that
    subset, the next scores are tried in decreasing order (ties in
    lexicographic order).  Subsets holding a point of non-finite Q are skipped.
    """
    m = cols.shape[1]
    total = math.comb(m, count)
    size = max(1, _CHUNK_ENTRIES // count**2)
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), count))
    rows = cols.T  # a subset's rows form the transpose: same |det|
    scores = np.empty(total)
    for start in range(0, total, size):
        k = min(size, total - start)
        idx = np.fromiter(flat, dtype=np.intp, count=k * count).reshape(k, count)
        _, log_abs = np.linalg.slogdet(rows[idx])  # -inf where sign is 0
        q_sum = q[idx].sum(axis=1)
        score = log_abs - n * q_sum
        score[~np.isfinite(q_sum)] = -math.inf
        scores[start:start + k] = score
    for rank in _descending(scores):
        if scores[rank] == -math.inf:
            break
        combo = _combination(int(rank), m, count)
        ld = _logdet_qr(cols[:, combo])
        if not ld.is_zero:
            return ld.log_abs - n * float(q[combo].sum())
    return -math.inf


def _descending(scores: np.ndarray):
    """Indices by decreasing score, ties by index; sorts only past the first."""
    yield int(np.argmax(scores))
    yield from np.argsort(-scores, kind="stable")[1:]


def lift_identity_check(
    cand: CandidateSet,
    weight: AdmissibleWeight,
    n_max: int,
    m_t: int = 4,
    exhaustive_cap: int = 200_000,
    fekete_seq: list[dict] | None = None,
) -> list[dict]:
    """Compare the weighted-VDM max on K against the homogeneous max on the lift.

    At any fixed degree the two maxima agree exactly (phase factors carry
    modulus w^n); the reported gap measures search error only.  Where a
    side is too large for the exhaustive max, both use one weighted Fekete
    search on K: a base configuration maximizing |W| lifts to one with the
    same homogeneous determinant modulus.  ``fekete_seq``, the output of
    ``fekete.diameter_sequence`` on the same set and weight, supplies the
    searched values of its degrees; only the other degrees are searched.
    """
    d = cand.dimension
    lift, _ = homogeneous_lift(cand, weight, m_t)
    q = weight(cand.points)
    usable = int(np.isfinite(q).sum())
    searched = {s["n"]: s["log_vdm"] for s in fekete_seq or ()}

    def search(n: int) -> float:
        if n not in searched:
            searched[n] = search_fekete(cand, n, weight).log_weighted_vdm
        return searched[n]

    out = []
    for n in range(1, n_max + 1):
        indices = enumerate_basis(n, d).indices
        n_pts = len(indices)
        assert dimension_counts(n, d + 1)[1] == n_pts  # h_n^{(d+1)} = m_n^{(d)}
        if usable < n_pts:
            raise InvalidInputError(
                f"degree {n} needs {n_pts} points of finite Q, got {usable}"
            )

        if math.comb(len(cand), n_pts) <= exhaustive_cap:
            cols = monomial_values(indices, cand.points)
            lhs_log = _exhaustive_max(cols, n_pts, n, q)
            lhs_method = "exhaustive"
        else:
            lhs_log = search(n)
            lhs_method = "search"
        if math.comb(len(lift), n_pts) <= exhaustive_cap:
            block = monomial_values(homogeneous_basis(n, d + 1).indices, lift.points)
            rhs_log = _exhaustive_max(block, n_pts, n, np.zeros(len(lift)))
            rhs_method = "exhaustive"
        else:
            rhs_log = search(n)
            rhs_method = "search"
        if lhs_log == rhs_log == -math.inf:
            raise InvalidInputError(
                f"no {n_pts}-point subset is unisolvent at degree {n}"
            )

        expo = diameter_exponent(n, d)
        lhs = math.exp(expo * lhs_log)
        rhs = math.exp(expo * rhs_log)
        out.append(
            {
                "n": n,
                "lhs_log": lhs_log,
                "rhs_log": rhs_log,
                "delta_lhs": lhs,
                "delta_rhs": rhs,
                "relative_gap": abs(lhs - rhs) / max(lhs, rhs),
                "lhs_method": lhs_method,
                "rhs_method": rhs_method,
            }
        )
    return out
