"""Directional Chebyshev constants and the homogeneous lift.

The discrete minimax over a candidate grid is solved as a linear program:
the complex modulus is outer-approximated by half-plane facets.  The first
facets sit at the residual phases of a Lawson (iteratively reweighted
least-squares) approximant: one per point once its bracket [sqrt(sum
w|r|^2), max|r|] closes to 1e-9 on M > 2J points for J coefficients, else
a square around each value.  Facets are added at the phases where the
current polynomial peaks until the re-evaluated maximum matches the LP
bound.  A real problem needs only the two facets +-r <= s, and its LP runs
on an active set of points (an exchange in the manner of Stiefel, Numer.
Math. 1960): the largest least-squares residuals first, then the points
outside the set whose residuals exceed the LP bound, largest first, until
there are none; the set's LP optimum is then the full LP's.  Reported values are true achieved maxima
of an explicit polynomial over every grid point: upper bounds on the
continuous optimum over the grid, within 1e-9 relative of the last LP
bound when the record's ``converged`` is true, and 0 with no LP when a
least-squares peak is rounding-level.  ``converged`` is false when a
complex refinement stops at ``_REFINE_ROUNDS``, or when a real active set
stops with its peak more than 1e-9 above the bound, which HiGHS's absolute
tolerances leave on some ill-conditioned grids.

The homogeneous-lift check maximizes each side exhaustively when it has at
most ``EXHAUSTIVE_CAP`` subsets.  One walk down the prefix tree of the
subsets scores each subset, as a product of projected column norms with
one Householder reflector per tree node, or proves it below the greedy
pick's value (the first pivots of a column-pivoted QR) by Hadamard's
inequality: a branch-and-bound, as in exact D-optimal design (Welch,
Technometrics 1982; Ko, Lee and Queyranne, Oper. Res. 1995).  The best
score is confirmed by a pivoted QR, so the maximum is exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .basis import degree_block, enumerate_basis
from .domains import AdmissibleWeight, CandidateSet, weight_power
from .errors import InvalidInputError, PluripotError
from .fekete import search_fekete
from .vdm import _logdet_qr, diameter_exponent, monomial_values, pivoted_qr

CLASSES = ("plain", "homogeneous", "weighted")
INITIAL_FACETS = 4
_LAWSON_STEPS = 30
_REFINE_ROUNDS = 60
_REFINE_TOL = 1e-9
# HiGHS's default feasibility tolerances (1e-7, absolute) leave the LP bound
# s_opt too loose for the _REFINE_TOL stopping test, and refinement runs to
# the round cap.  1e-10 is the smallest tolerance HiGHS accepts.  A dual
# tolerance of 1e-10 too made HiGHS fail on the first LP of two of 400 swept
# circle cases (m <= 400, 0.5 <= r <= 2, k <= 10); 1e-9 failed on none.
# Presolve only costs time on these dense LPs; without it those 400 circles,
# the 360 ellipse constants below and interval(-1, 1, 841, chebyshev) at
# k <= 8 converge within 1e-9 of their closed forms with no HiGHS failure.
# Options are written as scipy's linprog takes them; ``linprog`` translates
# them for HiGHS as scipy does (presolve False is "off", "devex" is 1).
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-9,
    "presolve": False,
}
# HiGHS's default dual edge weights failed on 5 of 360 complex constants (k <= 4)
# of moved 64-point ellipses, devex on none; devex failed on a real one.
_COMPLEX_OPTIONS = {**_HIGHS_OPTIONS, "simplex_dual_edge_weight_strategy": "devex"}
# The options scipy's linprog(method="highs") sets whatever it is given: dual
# simplex, no output, no debug checks.
_SCIPY_FIXED = {
    "simplex_strategy": 1,
    "output_flag": False,
    "log_to_console": False,
    "highs_debug_level": 0,
}
# HiGHS's simplex_dual_edge_weight_strategy value for scipy's name "devex".
_EDGE_WEIGHTS = {"devex": 1}
# scipy's linprog tests its solution at this absolute tolerance:
# sqrt(tol) * 10 with its default tol of 1e-9.
_RESULT_TOL = 10 * math.sqrt(1e-9)
# Entries of the products U^H a_x that one chunk of prefix-tree nodes forms
# in the exhaustive lift check: nodes * (N - k) * m at depth k.  A chunk's
# child bases hold at most N times as many.  On a 48-point circle at N = 4,
# 2^14 keeps the walk's traced peak near 4 MB, 1.6 MB of it the scores; 2^15
# takes 5.8 MB and is no faster.
_CHUNK_ENTRIES = 1 << 14
# Largest subset count a lift-check side maximizes exhaustively.
EXHAUSTIVE_CAP = 200_000
# Relative rounding margin of the exhaustive max's branch-and-bound: the
# floor sits this far below the greedy pick's value, and a subtree whose
# bound falls this far short of the floor is still expanded.
_PRUNE_SLACK = 1e-9
# Relative slack of the submultiplicativity audit, Y(a+b) <= Y(a) Y(b).
AUDIT_SLACK = 1e-9


@dataclass(frozen=True)
class ChebyshevRecord:
    """Minimal sup-norm over a monic polynomial class, with its witness.

    ``converged`` is true when ``value``, the witness's peak over the grid,
    is within 1e-9 relative of the last LP's bound on the minimax.
    """

    alpha: tuple[int, ...]
    class_tag: str
    value: float
    tau: float
    coefficients: np.ndarray = field(repr=False)
    converged: bool


def _class_monomials(alpha: tuple[int, ...], d: int, class_tag: str):
    """Monomials that may be recombined with e_alpha, per class rules."""
    monomials = degree_block if class_tag == "homogeneous" else enumerate_basis
    full = monomials(sum(alpha), d)
    return full[:full.index(alpha)]


class LPResult(NamedTuple):
    """``status`` 0 with the solution ``x``, or 4 with ``x`` None, as in scipy."""

    status: int
    message: str
    x: np.ndarray | None


@functools.cache
def _highs():
    """scipy's HiGHS bindings and the one HiGHS instance every LP reuses, or
    None when this scipy lacks the bindings or their passModel for arrays.

    Built on the first LP: scipy.optimize is slow to load.  The instance is
    not shared across threads: solve LPs from one thread at a time.
    """
    try:
        from scipy.optimize._highspy import _core
        highs = _core._Highs()
        highs.setOptionValue("output_flag", False)
        highs.passModel(0, 0, 0, 1, 1, 0.0, *[np.zeros(0)] * 5,  # an empty model, as arrays
                        *[np.zeros(0, np.int32)] * 2, np.zeros(0), np.zeros(0, np.int32))
    except (ImportError, TypeError):  # TypeError: this passModel takes no arrays
        return None
    return _core, highs


@functools.cache
def _highs_options(items: tuple):
    """A HiGHS options object holding scipy's fixed options and ``items``.

    Every LP with these options shares it: ``passOptions`` copies it.
    """
    options = _highs()[0].HighsOptions()
    for key, value in {**_SCIPY_FIXED, **dict(items)}.items():
        if key == "presolve":
            value = "on" if value else "off"
        elif key == "simplex_dual_edge_weight_strategy":
            value = _EDGE_WEIGHTS.get(value, value)
        try:
            setattr(options, key, value)
        except (AttributeError, TypeError) as err:
            raise PluripotError(f"HiGHS option {key} = {value!r}: {err}") from None
    return options


def linprog(c, *, A_ub, b_ub, bounds, options) -> LPResult:
    """min c . x subject to A_ub x <= b_ub and bounds[:, 0] <= x <= bounds[:, 1].

    Solved as scipy's ``linprog(method="highs")`` solves it, without scipy's
    per-call layer: the reused HiGHS instance, cleared to a fresh one's cold
    state, gets the same column-wise model (the nonzeros of the dense ``A_ub``,
    rows (-inf, b_ub]; HiGHS's infinity is inf) as numpy arrays and the same
    options, translated from scipy's names, and the solution passes scipy's
    check: no NaN, and ``x`` and the slack b_ub - A_ub x within 10 sqrt(1e-9)
    of feasible.  So ``x`` is scipy's bit for bit.  Without ``_highs``, this is
    scipy's ``linprog``.  Options HiGHS rejects raise PluripotError.
    """
    if _highs() is None:
        from scipy.optimize import linprog
        return linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs",
                       options=options)
    core, highs = _highs()
    highs.clearSolver()
    if highs.passOptions(_highs_options(tuple(options.items()))) == core.HighsStatus.kError:
        raise PluripotError(f"HiGHS rejected the LP options {options}")
    rows, cols = A_ub.shape
    # HiGHS reads num_col and num_row entries through raw pointers.
    if np.shape(c) != (cols,) or np.shape(b_ub) != (rows,) or np.shape(bounds) != (cols, 2):
        raise InvalidInputError(f"c, b_ub or bounds do not match A_ub of shape {A_ub.shape}")
    lower, upper = bounds.T
    nonzero = A_ub.T != 0
    start = np.r_[0, np.cumsum(nonzero.sum(axis=1))].astype(np.int32)
    value = A_ub.T[nonzero]
    if highs.passModel(cols, rows, len(value), core.MatrixFormat.kColwise,
                       core.ObjSense.kMinimize, 0.0, c, lower, upper, np.full(rows, -np.inf),
                       b_ub, start, np.nonzero(nonzero)[1].astype(np.int32), value,
                       np.zeros(cols, dtype=np.int32)) == core.HighsStatus.kError:
        return LPResult(4, "HiGHS rejected the model", None)
    if highs.run() == core.HighsStatus.kError:
        return LPResult(4, f"HiGHS failed: {highs.modelStatusToString(highs.getModelStatus())}", None)
    status = highs.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        return LPResult(4, f"HiGHS ended with {highs.modelStatusToString(status)}", None)
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    slack = b_ub - np.array(solution.row_value)
    if (np.isnan(x).any() or math.isnan(highs.getObjectiveValue()) or np.isnan(slack).any()
            or (x < lower - _RESULT_TOL).any() or (x > upper + _RESULT_TOL).any()
            or (slack < -_RESULT_TOL).any()):
        return LPResult(4, f"HiGHS's solution is infeasible beyond {_RESULT_TOL:.2e}", None)
    return LPResult(0, "Optimal", x)


def _solve_minimax(
    target: np.ndarray, lower: np.ndarray, scale: np.ndarray
) -> tuple[float, np.ndarray, bool, float]:
    """min over c of max_k scale_k |target_k + lower_k . c|.

    Returns (achieved max, c, converged, LP bound).  ``lower`` is (M, J).
    The achieved max is the true peak of the returned polynomial over all M
    points, and the bound is the last LP's optimum, a lower bound on the
    minimax up to HiGHS's tolerances; converged says that the peak is within
    ``_REFINE_TOL`` relative of it.  A complex problem refines its facets
    until it is, or stops at ``_REFINE_ROUNDS`` with converged false.  A
    real problem solves its LP on an active set of points, each with both
    facets, and stops when no point outside the set exceeds the bound: the
    set's optimum is then the full LP's, whether or not the peak meets the
    bound to ``_REFINE_TOL``.  An active-set LP that fails with both edge
    weights is solved again, in the next round, as the full LP on every point.
    """
    m, j = lower.shape
    keep = scale > 0
    t = target[keep] * scale[keep]
    e = lower[keep] * scale[keep, None]
    if j == 0:
        value = float(np.max(np.abs(t)))
        return value, np.zeros(0, dtype=complex), True, value
    # HiGHS's tolerances are absolute: the LP sees unit-peak target and columns.
    norm = unit = float(np.max(np.abs(t))) or 1.0
    col = np.abs(e).max(axis=0)
    col[col == 0] = 1.0
    t, e = t / norm, e / col

    def floor(c: np.ndarray) -> float:
        # Rounding error of a (J + 1)-term sum: a peak below it is a zero minimax.
        return (j + 1) * np.finfo(float).eps * np.max(np.abs(t) + np.abs(e) @ np.abs(c))
    real_case = not (t.imag.any() or e.imag.any())
    # Lawson's iteration; a real problem takes only its unweighted first step.
    w = np.full(len(t), 1.0 / len(t))
    for _ in range(1 if real_case else _LAWSON_STEPS):
        root = np.sqrt(w)
        c = np.linalg.lstsq(e * root[:, None], -t * root, rcond=None)[0]
        vals = t + e @ c
        r = np.abs(vals)
        size = float(r.max())
        if size <= floor(c):
            return 0.0, c * norm / col, True, 0.0
        # c minimizes sum w|r|^2 with sum w = 1: its root bounds the minimax below.
        certified = size <= math.sqrt(w @ r**2) * (1 + _REFINE_TOL)
        w = w * r
        if certified or w.sum() == 0:
            break
        w /= w.sum()

    rows_a: list[np.ndarray] = []
    rows_b: list[np.ndarray] = []
    if real_case:
        t, e = t.real, e.real
        # A real minimax is pinned by J + 1 reference points (Stiefel, Numer.
        # Math. 1960): the LP holds both facets, +-(t + e c) <= s, at an
        # active set of points, seeded with the largest least-squares
        # residuals and grown by the largest violators, this many at a time.
        batch = 2 * (j + 1)
        active = np.zeros(len(t), dtype=bool)
        fresh = _largest(r, np.arange(len(t)), batch)
    else:
        # Certified phases are a dual certificate (sum w conj(r) e = 0): one
        # facet each, if M > 2J rows can pin the 2J + 1 unknowns at a vertex.
        base, count = np.angle(vals), 1 if certified and len(t) > 2 * j else INITIAL_FACETS
        # Lawson's peak is near the minimax: dividing it out puts the LP's
        # value near 1.  A zero minimax, up to rounding, is not divided out.
        if size > _REFINE_TOL:
            t, e, unit = t / size, e / size, unit * size

        def add_facets(theta: np.ndarray, idx: np.ndarray) -> None:
            rot = np.exp(-1j * theta)[:, None]
            ee = e[idx] * rot
            block = np.concatenate(
                [ee.real, -ee.imag, -np.ones((len(idx), 1))], axis=1
            )
            rows_a.append(block)
            rows_b.append(-(t[idx] * rot[:, 0]).real)

        for f in range(count):
            add_facets(base + 2 * np.pi * f / count, np.arange(len(t)))

    unknowns = j if real_case else 2 * j
    cost = np.zeros(unknowns + 1)
    cost[-1] = 1.0
    bounds = np.array([(-np.inf, np.inf)] * unknowns + [(0.0, np.inf)])
    # A failed LP is solved once more with the other dual edge weights.
    strategies = (
        (_HIGHS_OPTIONS, _COMPLEX_OPTIONS) if real_case else (_COMPLEX_OPTIONS, _HIGHS_OPTIONS)
    )
    converged = False
    for _ in range(_REFINE_ROUNDS):
        if real_case:
            active[fresh] = True
            ones = np.ones((len(fresh), 1))
            rows_a.append(np.block([[e[fresh], -ones], [-e[fresh], -ones]]))
            rows_b.append(np.concatenate([-t[fresh], t[fresh]]))
        a_ub, b_ub = np.concatenate(rows_a), np.concatenate(rows_b)
        for options in strategies:
            res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, options=options)
            if res.status == 0:
                break
        else:
            if not real_case or active.all():
                raise PluripotError(f"minimax LP failed: {res.message}")
            fresh = np.nonzero(~active)[0]  # the full LP, in the next round
            continue
        x = res.x
        c_best = x[:j] if real_case else x[:j] + 1j * x[j : 2 * j]
        s_opt = x[-1]
        vals = t + e @ c_best
        r = np.abs(vals)
        peak = float(r.max())
        zero = floor(c_best)
        within = peak <= s_opt * (1 + _REFINE_TOL) + zero
        cut = np.nonzero(r > s_opt * (1 + 1e-12))[0]
        if real_case:
            fresh = _largest(r, cut[~active[cut]], batch)
            if not len(fresh):
                converged = within
                break
        elif within:
            converged = True
            break
        else:
            add_facets(np.angle(vals[cut]), cut)
    value = peak * unit if peak > zero else 0.0
    return value, c_best * norm / col, converged, s_opt * unit


def _largest(r: np.ndarray, idx: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` entries of ``idx`` with the largest r, largest first
    (ties in index order)."""
    return idx[np.argsort(-r[idx], kind="stable")[:count]]


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
    value, coeffs, converged, _ = _solve_minimax(target, lower, scale)
    return ChebyshevRecord(
        alpha=alpha,
        class_tag=class_tag,
        value=value,
        tau=value ** (1.0 / deg),
        coefficients=coeffs,
        converged=converged,
    )


def submultiplicativity_audit(records: list[ChebyshevRecord]) -> list[dict]:
    """Flag pairs with Y(a+b) > Y(a) Y(b) (1 + AUDIT_SLACK); should be empty."""
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
        if lhs > rhs * (1 + AUDIT_SLACK):
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
    """Geometric mean of tau(alpha) over the degree-n block.

    It is 0 when some tau is, as when a monic polynomial of degree n
    vanishes on a grid of at most n points.
    """
    if n < 1:
        raise InvalidInputError("degree must be >= 1")
    block = degree_block(n, cand.dimension)
    records = [chebyshev_constant(cand, a, class_tag, weight) for a in block]
    logs = [math.log(r.tau) if r.tau > 0 else -math.inf for r in records]
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
    return CandidateSet(lifted), dropped


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


def _chunk_nodes(dim: int, m: int) -> int:
    """Nodes per chunk at a prefix-tree level whose complements have dimension dim."""
    return max(1, _CHUNK_ENTRIES // (dim * m))


def _subset_scores(
    cols: np.ndarray, count: int, n: int, q: np.ndarray, floor: float = -math.inf
) -> np.ndarray:
    """log |det cols[:, S]| - n * sum Q(S) for every count-subset S, lexicographically.

    A walk down the prefix tree of the subsets, one level at a time, by
    |det cols[:, S]| = prod_k |P_k a_{s_k}|, where a_x is column x and P_k
    projects onto the orthogonal complement of a_{s_1}, ..., a_{s_{k-1}}.
    A node at depth k holds an orthonormal basis U (count x (count - k)) of
    its complement, its partial score, its last index and the lexicographic
    rank of its first subset.  Child x > last gets alpha = U^H a_x and the
    partial score + log |alpha| - n Q(x); above the leaves it also gets the
    basis U H(alpha)[:, 1:], from the Householder reflector H(alpha) that
    maps alpha to a multiple of e_1.  Each level is processed in chunks of
    ``_chunk_nodes`` nodes with batched numpy operations, and the walk
    finishes a chunk's subtree before the next chunk.  A subset holding a
    point of non-finite Q scores -inf.

    A finite ``floor`` makes the walk a branch-and-bound: it scores each
    subset or proves its score below the floor, and a proven subset reads
    -inf.  By Hadamard's inequality no later projected norm exceeds the
    node's own, so with r = count - k - 1 slots left after child x, no
    subset below x scores more than its partial score + r max_{y > x}
    (log |U^H a_y| - n Q(y)).  A child whose bound, widened by
    ``_PRUNE_SLACK`` for rounding, falls short of the floor is not expanded.
    The subsets that are scored score bit for bit as with no floor.
    """
    m = cols.shape[1]
    cost = np.where(np.isfinite(q), n * q, math.inf)
    scores = np.full(math.comb(m, count), -math.inf)
    cut = floor - _PRUNE_SLACK * max(1.0, abs(floor))
    # ahead[dim][x] counts the subsets of a node with dim slots whose next
    # index is below x: child x's first rank is its node's plus
    # ahead[dim][x] - ahead[dim][last + 1].
    ahead = {
        dim: np.concatenate(
            ([0], np.cumsum([math.comb(m - 1 - x, dim - 1) for x in range(m)]))
        )
        for dim in range(2, count + 1)
    }
    # Blocks of nodes: the rows U^H of their bases, partial scores, last
    # indices and first ranks.
    stack = [(np.eye(count, dtype=complex)[None], np.zeros(1), np.full(1, -1),
              np.zeros(1, dtype=np.int64))]
    while stack:
        rows, partial, last, first = stack.pop()
        dim = rows.shape[1]
        size = _chunk_nodes(dim, m)
        if len(last) > size:
            stack.extend(
                (rows[i:i + size], partial[i:i + size], last[i:i + size],
                 first[i:i + size])
                for i in reversed(range(0, len(last), size))
            )
            continue
        stop = m - dim + 1  # room for the dim - 1 indices still to come
        keep = np.arange(stop) > last[:, None]
        products = rows @ cols[:, :stop]
        if dim == 1:
            with np.errstate(divide="ignore"):
                score = partial[:, None] + np.log(np.abs(products[:, 0])) - cost[:stop]
            rank = first[:, None] + (np.arange(stop) - last[:, None] - 1)
            scores[rank[keep]] = score[keep]
            continue
        parent, child = np.nonzero(keep)
        alpha = products.transpose(0, 2, 1)[keep]
        norm = np.linalg.norm(alpha, axis=1)
        with np.errstate(divide="ignore"):
            log_norm = np.log(norm)
            score = partial[parent] + log_norm - cost[child]
        if cut > -math.inf:
            # gain[:, y] = log |U^H a_y| - n Q(y) for y > last, over all m
            # columns; later[:, x] is its maximum over y > x.
            gain = np.full((len(last), m), -math.inf)
            gain[parent, child] = log_norm - cost[child]
            with np.errstate(divide="ignore"):
                gain[:, stop:] = (np.log(np.linalg.norm(rows @ cols[:, stop:], axis=1))
                                  - cost[stop:])
            later = np.maximum.accumulate(gain[:, :0:-1], axis=1)[:, ::-1]
            alive = score + (dim - 1) * later[parent, child] >= cut
            parent, child, alpha, norm, score = (
                parent[alive], child[alive], alpha[alive], norm[alive], score[alive]
            )
        offsets = ahead[dim]
        child_first = first[parent] + offsets[child] - offsets[last[parent] + 1]
        # H = I - beta v v^H with v = alpha + e^{i arg alpha_1} |alpha| e_1,
        # and the child's rows are H[1:, :] U^H = U^H[1:] - beta v[1:] (v^H U^H).
        lead = np.abs(alpha[:, 0])
        v = alpha.copy()
        v[:, 0] += np.exp(1j * np.angle(alpha[:, 0])) * norm
        with np.errstate(divide="ignore"):
            beta = np.where(norm > 0, 1.0 / (norm * (norm + lead)), 0.0)
        up = rows[parent]
        vh_rows = (v.conj()[:, None, :] @ up)[:, 0]
        scaled = (beta[:, None] * v[:, 1:])[:, :, None]
        child_rows = up[:, 1:] - scaled * vh_rows[:, None]
        stack.append((child_rows, score, child, child_first))
    return scores


def _greedy_floor(cols: np.ndarray, count: int, n: int, q: np.ndarray) -> float:
    """The greedy pick's score, less ``_PRUNE_SLACK`` relative; -inf without one.

    The pick is the first ``count`` pivots of a column-pivoted QR of the
    w^n-scaled columns, as in ``fekete.search_fekete``.  Its score is the
    value ``_exhaustive_max`` would report for it: any subset's value is a
    floor for the maximum.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = cols * weight_power(q, n)
    if not np.isfinite(scaled).all():  # w^n overflows where Q < -709 / n
        return -math.inf
    _, piv = pivoted_qr(scaled, overwrite=True)
    pick = piv[:count]
    value = _logdet_qr(cols[:, pick]).value - n * float(q[pick].sum())
    if not math.isfinite(value):
        return -math.inf
    return value - _PRUNE_SLACK * max(1.0, abs(value))


def _best_regular(
    cols: np.ndarray, count: int, n: int, q: np.ndarray, scores: np.ndarray,
    floor: float,
) -> float | None:
    """The pivoted-QR value of the best-scoring subset that the rank rule
    accepts, trying finite scores of at least ``floor`` in decreasing order
    (ties in lexicographic order); None when none is accepted.
    """
    m = cols.shape[1]
    for rank in _descending(scores):
        if scores[rank] == -math.inf or scores[rank] < floor:
            break
        combo = _combination(int(rank), m, count)
        ld = _logdet_qr(cols[:, combo])
        if not ld.is_zero:
            return ld.log_abs - n * float(q[combo].sum())
    return None


def _exhaustive_max(cols: np.ndarray, count: int, n: int, q: np.ndarray) -> float:
    """Max of log |det cols[:, S]| - n * sum Q(S) over count-subsets S.

    ``_subset_scores`` scores each subset by projections down the prefix
    tree of the subsets, or proves it below the greedy pick's value
    (``_greedy_floor``).  The value reported is the pivoted QR of the
    best-scoring subset, whose rank rule alone judges singularity: if it
    rejects that subset, the next scores are tried in decreasing order
    (ties in lexicographic order).  Every subset scoring at least the floor
    is scored, so the first one accepted is the maximum with no floor too.
    If the rank rule rejects them all, the subsets are scored again with no
    floor.  Subsets holding a point of non-finite Q are skipped.
    """
    floor = _greedy_floor(cols, count, n, q)
    scores = _subset_scores(cols, count, n, q, floor)
    best = _best_regular(cols, count, n, q, scores, floor)
    if best is None and floor > -math.inf:
        scores = _subset_scores(cols, count, n, q)
        best = _best_regular(cols, count, n, q, scores, -math.inf)
    return -math.inf if best is None else best


def _descending(scores: np.ndarray):
    """Indices by decreasing score, ties by index; sorts only past the first."""
    yield int(np.argmax(scores))
    yield from np.argsort(-scores, kind="stable")[1:]


def lift_identity_check(
    cand: CandidateSet,
    weight: AdmissibleWeight,
    n_max: int,
    m_t: int = 4,
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
        indices = enumerate_basis(n, d)
        n_pts = len(indices)  # = h_n in d + 1 variables, the lift side's size
        if usable < n_pts:
            raise InvalidInputError(
                f"degree {n} needs {n_pts} points of finite Q, got {usable}"
            )

        if math.comb(len(cand), n_pts) <= EXHAUSTIVE_CAP:
            cols = monomial_values(indices, cand.points)
            lhs_log = _exhaustive_max(cols, n_pts, n, q)
            lhs_method = "exhaustive"
        else:
            lhs_log = search(n)
            lhs_method = "search"
        if math.comb(len(lift), n_pts) <= EXHAUSTIVE_CAP:
            block = monomial_values(degree_block(n, d + 1), lift.points)
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
