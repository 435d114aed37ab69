"""Directional Chebyshev constants by LP minimax.

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
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .basis import degree_block, enumerate_basis
from .domains import AdmissibleWeight, CandidateSet
from .errors import InvalidInputError, PluripotError
from .vdm import _scipy_module, monomial_values, relative_scales, weighted_columns

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

    Built on the first LP from the bindings' file, not scipy.optimize.  The
    instance is not shared across threads: solve LPs from one thread at a time.
    """
    try:
        _core = _scipy_module("optimize._highspy", "_core")
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
    ``_REFINE_TOL`` relative of it.  From Lawson's start a real problem is
    solved by ``_real_minimax``, a complex one by ``_complex_minimax``.
    """
    m, j = lower.shape
    keep = scale > 0
    t = target[keep] * scale[keep]
    e = lower[keep] * scale[keep, None]
    if j == 0:
        value = float(np.max(np.abs(t)))
        return value, np.zeros(0, dtype=complex), True, value
    # HiGHS's tolerances are absolute: the LP sees unit-peak target and columns.
    norm = float(np.max(np.abs(t))) or 1.0
    col = np.abs(e).max(axis=0)
    col[col == 0] = 1.0
    t, e = t / norm, e / col
    real_case = not (t.imag.any() or e.imag.any())
    # Lawson's iteration; a real problem takes only its unweighted first step.
    w = np.full(len(t), 1.0 / len(t))
    for _ in range(1 if real_case else _LAWSON_STEPS):
        root = np.sqrt(w)
        c = np.linalg.lstsq(e * root[:, None], -t * root, rcond=None)[0]
        vals, r, size, zero = _evaluate(t, e, c)
        if size <= zero:
            return 0.0, c * norm / col, True, 0.0
        # c minimizes sum w|r|^2 with sum w = 1: its root bounds the minimax below.
        certified = size <= math.sqrt(w @ r**2) * (1 + _REFINE_TOL)
        w = w * r
        if certified or w.sum() == 0:
            break
        w /= w.sum()
    if real_case:
        value, c, converged, bound = _real_minimax(t.real, e.real, r, norm)
    else:
        value, c, converged, bound = _complex_minimax(t, e, vals, certified, norm)
    return value, c * norm / col, converged, bound


def _evaluate(t: np.ndarray, e: np.ndarray, c: np.ndarray):
    """t + e c, its moduli, their peak, and the rounding error of a (J + 1)-term
    sum: a peak below it is a zero minimax."""
    vals = t + e @ c
    r = np.abs(vals)
    zero = (len(c) + 1) * np.finfo(float).eps * np.max(np.abs(t) + np.abs(e) @ np.abs(c))
    return vals, r, float(r.max()), zero


def _lp(rows_a: list, rows_b: list, strategies: tuple) -> LPResult:
    """min s over (x, s >= 0) subject to the stacked rows A_ub (x, s) <= b_ub,
    with the first options, and once more with the second (the other dual
    edge weights) if that fails."""
    a_ub, b_ub = np.concatenate(rows_a), np.concatenate(rows_b)
    cost = np.r_[np.zeros(a_ub.shape[1] - 1), 1.0]
    bounds = np.array([(-np.inf, np.inf)] * (len(cost) - 1) + [(0.0, np.inf)])
    for options in strategies:
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, options=options)
        if res.status == 0:
            break
    return res


def _real_minimax(t: np.ndarray, e: np.ndarray, r: np.ndarray, unit: float):
    """(value, c, converged, bound) for real unit-peak data; value and bound
    in units of ``unit``.

    A real minimax is pinned by J + 1 reference points (Stiefel, Numer.
    Math. 1960): the LP holds both facets, +-(t + e c) <= s, at an active set
    of points, seeded with the largest least-squares residuals ``r`` and
    grown by the largest violators, 2(J + 1) at a time.  It stops when no
    point outside the set exceeds the bound: the set's optimum is then the
    full LP's, whether or not the peak meets the bound to ``_REFINE_TOL``.
    An active-set LP that fails with both edge weights is solved again, in
    the next round, as the full LP on every point.
    """
    j = e.shape[1]
    batch = 2 * (j + 1)
    active = np.zeros(len(t), dtype=bool)
    fresh = _largest(r, np.arange(len(t)), batch)
    rows_a, rows_b, converged = [], [], False
    for _ in range(_REFINE_ROUNDS):
        active[fresh] = True
        ones = np.ones((len(fresh), 1))
        rows_a.append(np.block([[e[fresh], -ones], [-e[fresh], -ones]]))
        rows_b.append(np.concatenate([-t[fresh], t[fresh]]))
        res = _lp(rows_a, rows_b, (_HIGHS_OPTIONS, _COMPLEX_OPTIONS))
        if res.status != 0:
            if active.all():
                raise PluripotError(f"minimax LP failed: {res.message}")
            fresh = np.nonzero(~active)[0]  # the full LP, in the next round
            continue
        c, s_opt = res.x[:j], res.x[-1]
        _, r, peak, zero = _evaluate(t, e, c)
        cut = np.nonzero(r > s_opt * (1 + 1e-12))[0]
        fresh = _largest(r, cut[~active[cut]], batch)
        if not len(fresh):
            converged = peak <= s_opt * (1 + _REFINE_TOL) + zero
            break
    return (peak * unit if peak > zero else 0.0), c, converged, s_opt * unit


def _complex_minimax(t: np.ndarray, e: np.ndarray, vals: np.ndarray, certified: bool, unit: float):
    """As ``_real_minimax`` for complex data, from Lawson's last residuals
    ``vals``: facets are refined until the peak is within ``_REFINE_TOL`` of
    the bound, or stop at ``_REFINE_ROUNDS`` with converged false.
    """
    j, size = e.shape[1], float(np.abs(vals).max())
    # Certified phases are a dual certificate (sum w conj(r) e = 0): one
    # facet each, if M > 2J rows can pin the 2J + 1 unknowns at a vertex.
    base, count = np.angle(vals), 1 if certified and len(t) > 2 * j else INITIAL_FACETS
    # Lawson's peak is near the minimax: dividing it out puts the LP's
    # value near 1.  A zero minimax, up to rounding, is not divided out.
    if size > _REFINE_TOL:
        t, e, unit = t / size, e / size, unit * size
    rows_a, rows_b, converged = [], [], False

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
    for _ in range(_REFINE_ROUNDS):
        res = _lp(rows_a, rows_b, (_COMPLEX_OPTIONS, _HIGHS_OPTIONS))
        if res.status != 0:
            raise PluripotError(f"minimax LP failed: {res.message}")
        c, s_opt = res.x[:j] + 1j * res.x[j:2 * j], res.x[-1]
        vals, r, peak, zero = _evaluate(t, e, c)
        if peak <= s_opt * (1 + _REFINE_TOL) + zero:
            converged = True
            break
        cut = np.nonzero(r > s_opt * (1 + 1e-12))[0]
        add_facets(np.angle(vals[cut]), cut)
    return (peak * unit if peak > zero else 0.0), c, converged, s_opt * unit


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
    # The lower monomials' rows, then e_alpha's.
    rows = np.concatenate([monomial_values(_class_monomials(alpha, d, class_tag), cand.points),
                           monomial_values([alpha], cand.points)])
    scale, top, lost = np.ones(len(cand)), 0.0, False
    if class_tag == "weighted":
        if weight is None:
            raise InvalidInputError("weighted class needs a weight")
        # The LP sees w^deg over its largest, e^top.  A point where that underflows is left
        # out: exact while its residual, below tiny (1 + sum |c|) e^top, is below the value.
        rows, s = weighted_columns(rows, weight(cand.points), deg)
        if not np.isfinite(s).any():
            raise InvalidInputError("weight vanishes on the whole candidate set")
        scale, top = relative_scales(s)
        lost = ((scale == 0) & (s > -math.inf)).any()
    value, coeffs, converged, _ = _solve_minimax(rows[-1], rows[:-1].T, scale)
    if lost and value <= np.finfo(float).tiny * (1.0 + np.abs(coeffs).sum()):
        raise InvalidInputError(
            f"w^{deg} = exp(-{deg} Q) spans more than a float on the grid, and the"
            " minimax rests on the points where it underflows relative to its largest"
        )
    with np.errstate(over="ignore"):
        value = value * float(np.exp(top)) if value else 0.0
    if value == math.inf:
        raise InvalidInputError(f"the weighted Chebyshev value, of scale e^{top:.6g}, overflows")
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
