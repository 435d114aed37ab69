"""Weighted-VDM maxima on K against homogeneous ones on its lift to C^{d+1}.

The homogeneous-lift check maximizes each side exhaustively when it has at
most ``EXHAUSTIVE_CAP`` subsets, by one of two proofs.  The first is the
Kiefer-Wolfowitz equivalence theorem (Canad. J. Math. 1960) for equal mass
on the weighted Fekete search's pick S: no subset beats S by more than
N/2 (max_x sum_j |l_j(x)|^2 - 1) in log |W|, where l_j is the weighted
Lagrange basis of S.  Where that bound is at most ``gram.EXCHANGE_TOL``,
the side reports S's own value.  Elsewhere one walk down the prefix tree of
the subsets scores each subset, as a product of projected column norms with
one Householder reflector per tree node, or proves it below the search's
value by Hadamard's inequality: a branch-and-bound, as in exact D-optimal
design (Welch, Technometrics 1982; Ko, Lee and Queyranne, Oper. Res. 1995).
The walk runs in a basis of the row space whose rows are orthonormal for
the weighted columns, where Hadamard's bound is a product of weighted
leverages, as no rescaling of the rows can move it.  The best score is
confirmed by a pivoted QR, so the maximum is exact.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .basis import degree_block, enumerate_basis
from .domains import AdmissibleWeight, CandidateSet, finite_weight_power
from .errors import InvalidInputError
from .fekete import search_fekete
from .gram import EXCHANGE_TOL
from .vdm import _lapack, _logdet_qr, diameter_exponent, monomial_values, relative_scales
from .vdm import weighted_columns

# Entries of the products U^H a_x that one chunk of prefix-tree nodes forms
# in the exhaustive lift check: nodes * (N - k) * m at depth k.  A chunk's
# child bases hold at most N times as many.  On a 48-point circle at N = 4
# with no floor, 2^14 keeps the walk's traced peak near 5 MB, 2.3 MB of it
# the scores and subsets it returns; 2^15 takes 6 MB and is no faster.
_CHUNK_ENTRIES = 1 << 14
# Largest subset count a lift-check side maximizes exhaustively.
EXHAUSTIVE_CAP = 200_000
# Relative rounding margin of the exhaustive max's branch-and-bound: the
# floor sits this far below the known value, and a subtree whose
# bound falls this far short of the floor is still expanded.
_PRUNE_SLACK = 1e-9
# Span of the log weights that set the walk's row basis: a column weighs
# exp(max(scale - largest scale, -_WEIGHT_SPAN)).  The basis change's condition
# number grows like e^_WEIGHT_SPAN: at 5 the scores keep the 1e-13 relative
# accuracy that the lift tests ask of them, at 10 three of those tests fail.
_WEIGHT_SPAN = 5.0


def homogeneous_lift(cand: CandidateSet, weight: AdmissibleWeight, m_t: int) -> np.ndarray:
    """Points (t, t*lambda) with |t| = w(lambda), m_t phases per base point.

    Returns the (m' * m_t, d + 1) array of the lifts of the m' base points
    of finite Q; a point where w = 0 has no lift.
    """
    if m_t < 1:
        raise InvalidInputError("phase resolution must be >= 1")
    q = weight(cand.points)
    keep = np.isfinite(q)
    if not keep.any():
        raise InvalidInputError("weight vanishes on every candidate point")
    w = finite_weight_power(q[keep], 1)
    phases = np.exp(2j * np.pi * np.arange(m_t) / m_t)
    t = (w[:, None] * phases[None, :]).ravel()
    base = np.repeat(cand.points[keep], m_t, axis=0)
    return np.column_stack([t, base * t[:, None]])


def _chunk_nodes(dim: int, m: int) -> int:
    """Nodes per chunk at a prefix-tree level whose complements have dimension dim."""
    return max(1, _CHUNK_ENTRIES // (dim * m))


def _leverage_basis(cols: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, float] | None:
    """(T cols, log |det R|) for T = R^-H, where (cols rel)^H = Q R and
    rel = exp(max(scale - largest finite scale, -_WEIGHT_SPAN)).

    The weighted columns T cols rel are Q^H's: their rows are orthonormal,
    and column x has norm sqrt(h_x), its leverage, at most 1.  Then
    log |det (T cols)[:, S]| = log |det cols[:, S]| - log |det R|.  Where R
    has a zero pivot, or fewer than count rows, the rows of cols are
    linearly dependent and the result is None.
    """
    count = len(cols)
    rel = np.maximum(relative_scales(scale)[0], np.exp(-_WEIGHT_SPAN))
    r = np.linalg.qr((cols * rel).conj().T, mode="r")
    pivots = np.abs(r.diagonal())
    if len(pivots) < count or not pivots.all():
        return None
    rows, _ = _lapack("trtrs", r, cols)(r, cols, trans=2)
    return rows, float(np.log(pivots).sum())


def _subset_scores(
    cols: np.ndarray, count: int, scale: np.ndarray, floor: float = -math.inf
) -> tuple[np.ndarray, np.ndarray]:
    """log |det cols[:, S]| + sum scale(S) and S, for count-subsets S in lexicographic order.

    ``cols`` and ``scale`` are ``vdm.weighted_columns``' unit-peak columns
    and log scales, so the scores are those of the weighted columns
    e^(scale_x) cols[:, x], and no norm is out of range for the reflectors.

    A walk down the prefix tree of the subsets, one level at a time, by
    |det cols[:, S]| = prod_k |P_k a_{s_k}|, where a_x is column x and P_k
    projects onto the orthogonal complement of a_{s_1}, ..., a_{s_{k-1}}.
    A node at depth k holds an orthonormal basis U (count x (count - k)) of
    its complement, its partial score and its prefix s_1 < ... < s_k.
    Child x > s_k (s_0 = -1) gets alpha = U^H a_x and the partial score
    + log |alpha| + scale_x; above the leaves it also gets the basis
    U H(alpha)[:, 1:], from the Householder reflector H(alpha) that maps
    alpha to a multiple of e_1.  Each level is processed in chunks of
    ``_chunk_nodes`` nodes with batched numpy operations, and the walk
    finishes a chunk's subtree before the next chunk.  A subset holding a
    point of scale -inf (Q = +inf) scores -inf.

    Each column is walked in the row basis of ``_leverage_basis``, as T a_x.
    That shifts every score by log |det T| = -log |det R|, which is added
    back at the end.  Where R has a zero pivot, the rows of cols are
    linearly dependent and every subset scores -inf.

    A finite ``floor`` makes the walk a branch-and-bound: it scores each
    subset or proves its score below the floor, and a proven subset is left
    out.  By Hadamard's inequality no later projected norm exceeds the
    node's own, so with r = count - k - 1 slots left after child x, no
    subset below x scores more than its partial score + r max_{y > x}
    (log |U^H a_y| + scale_y); in the row basis, that bound is one of
    weighted leverages, which rescaling the rows cannot loosen.  A child
    whose bound, widened by ``_PRUNE_SLACK`` for rounding, falls short of
    the floor is not expanded.
    The subsets that are scored score bit for bit as with no floor.
    """
    m = cols.shape[1]
    basis = _leverage_basis(cols, scale)
    if basis is None:  # the rows are dependent: every subset is singular
        scale, shift = np.full(m, -math.inf), 0.0
    else:
        cols, shift = basis
    cut = floor - _PRUNE_SLACK * max(1.0, abs(floor)) - shift
    index = np.min_scalar_type(-m)  # the smallest signed type that holds m
    scored, subsets = [np.empty(0)], [np.empty((0, count), index)]
    # Blocks of nodes: the rows U^H of their bases, partial scores and [-1, prefix].
    stack = [(np.eye(count, dtype=complex)[None], np.zeros(1), np.full((1, 1), -1, index))]
    while stack:
        rows, partial, prefix = stack.pop()
        dim = rows.shape[1]
        size = _chunk_nodes(dim, m)
        if len(prefix) > size:
            stack.extend(
                (rows[i:i + size], partial[i:i + size], prefix[i:i + size])
                for i in reversed(range(0, len(prefix), size))
            )
            continue
        stop = m - dim + 1  # room for the dim - 1 indices still to come
        keep = np.arange(stop) > prefix[:, -1:]
        products = rows @ cols[:, :stop]
        if dim == 1:
            with np.errstate(divide="ignore"):
                score = partial[:, None] + np.log(np.abs(products[:, 0])) + scale[:stop]
            scored.append(score[keep])
            child = np.broadcast_to(np.arange(stop, dtype=index), keep.shape)[keep]
            heads = np.repeat(prefix[:, 1:], keep.sum(axis=1), axis=0)
            subsets.append(np.column_stack((heads, child)))
            continue
        parent, child = np.nonzero(keep)
        alpha = products.transpose(0, 2, 1)[keep]
        norm = np.linalg.norm(alpha, axis=1)
        with np.errstate(divide="ignore"):
            log_norm = np.log(norm)
            score = partial[parent] + log_norm + scale[child]
        if cut > -math.inf:
            # gain[:, y] = log |U^H a_y| + scale_y for y > s_k, over all m
            # columns; later[:, x] is its maximum over y > x.
            gain = np.full((len(prefix), m), -math.inf)
            gain[parent, child] = log_norm + scale[child]
            with np.errstate(divide="ignore"):
                gain[:, stop:] = (np.log(np.linalg.norm(rows @ cols[:, stop:], axis=1))
                                  + scale[stop:])
            later = np.maximum.accumulate(gain[:, :0:-1], axis=1)[:, ::-1]
            alive = score + (dim - 1) * later[parent, child] >= cut
            parent, child, alpha, norm, score = (
                parent[alive], child[alive], alpha[alive], norm[alive], score[alive]
            )
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
        grown = np.concatenate((np.take(prefix, parent, axis=0), child[:, None]), axis=1, dtype=index)
        stack.append((child_rows, score, grown))
    return np.concatenate(scored) + shift, np.concatenate(subsets)


def _exhaustive_max(
    cols: np.ndarray, count: int, scale: np.ndarray, known: float = -math.inf
) -> float:
    """Max of log |det cols[:, S]| + sum scale(S) over count-subsets S, for
    ``vdm.weighted_columns``' unit-peak columns and log scales.

    ``_subset_scores`` scores each subset by projections down the prefix
    tree of the subsets, or proves it below the floor: ``known``, the value
    of some subset (-inf, no floor, when none is known), less
    ``_PRUNE_SLACK`` relative.  The value reported is the pivoted QR of the
    best-scoring subset, whose rank rule alone judges singularity: if it
    rejects that subset, the next scores are tried in decreasing order
    (ties in lexicographic order).  Every subset scoring at least the floor
    is scored, so the first one accepted is the maximum with no floor too.
    If the rank rule rejects them all, the subsets are scored again with no
    floor.  Subsets holding a point of scale -inf are skipped.
    """
    floor = known - _PRUNE_SLACK * max(1.0, abs(known))
    walks = [(floor, _subset_scores(cols, count, scale, floor))]
    while walks:
        bound, (scores, subsets) = walks.pop()
        for i in _descending(scores):
            if scores[i] == -math.inf or scores[i] < bound:
                break
            ld = _logdet_qr(cols[:, subsets[i]], scale[subsets[i]])
            if not ld.is_zero:
                return ld.log_abs
        if bound > -math.inf:
            walks.append((-math.inf, _subset_scores(cols, count, scale)))
    return -math.inf


def _descending(scores: np.ndarray):
    """Indices by decreasing score, ties by index; sorts only past the first."""
    if np.isnan(scores).any():
        raise InvalidInputError("a subset score is NaN, so the scores have no order")
    if len(scores):
        yield int(np.argmax(scores))
        yield from np.argsort(-scores, kind="stable")[1:]


def _lagrange_margin(cols: np.ndarray, scale: np.ndarray, pick: np.ndarray) -> float:
    """N/2 (max_x |C[:, x]|^2 - 1) for C = V_S^-1 A, or inf where V_S is
    singular or C is not finite.

    A holds the weighted columns e^(scale_x) cols[:, x] of
    ``vdm.weighted_columns``, relative to the largest scale in the pick S,
    and V_S = A[:, S], so C[:, x] holds the weighted Lagrange basis of S at
    x.  For equal mass on S the Bergman function is N |C[:, x]|^2, so by
    the Kiefer-Wolfowitz theorem no N-subset of the columns beats S by more
    than this margin in log |det|.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a = cols * np.exp(scale - scale[pick].max())
        try:
            coef = np.linalg.solve(a[:, pick], a)
        except np.linalg.LinAlgError:
            return math.inf
        peak = float(np.square(np.abs(coef)).sum(axis=0).max())
    return 0.5 * len(pick) * (peak - 1.0) if math.isfinite(peak) else math.inf


def lift_identity_check(
    cand: CandidateSet,
    weight: AdmissibleWeight,
    n_max: int,
    m_t: int = 4,
    fekete_seq: list[dict] | None = None,
) -> list[dict]:
    """Compare the weighted-VDM max on K against the homogeneous max on the lift.

    At any fixed degree the two maxima agree exactly (phase factors carry
    modulus w^n); the reported gap measures search error only.  Each degree
    runs one weighted Fekete search on K.  Its pick S starts the K side, and
    S's lifted configuration (phase 0 over each point of S, of the same
    homogeneous determinant modulus) starts the lift side.  A side of at
    most ``EXHAUSTIVE_CAP`` subsets is "exhaustive": its maximum is proven,
    from that side's own columns, either by the Lagrange basis of its pick
    (``_lagrange_margin`` at most ``gram.EXCHANGE_TOL``, so no subset beats
    the pick by more than 1e-12 in log |W|, and the side reports the pick's
    value) or else by the walk of ``_exhaustive_max``, floored at the
    search's value.  A larger side reports the search's value, as
    "search".  ``fekete_seq``, the output of ``fekete.diameter_sequence``
    on the same set and weight, supplies the searched values and picks of
    its degrees; only the other degrees are searched.
    """
    d = cand.dimension
    lift = homogeneous_lift(cand, weight, m_t)
    q = weight(cand.points)
    finite_weight_power(q[np.isfinite(q)], n_max)  # lifted columns carry t^n, |t| = w
    usable = int(np.isfinite(q).sum())
    # Index in the lift of phase 0 over each base point of finite Q.
    lifted = (np.cumsum(np.isfinite(q)) - 1) * m_t
    searched = {s["n"]: (s["log_vdm"], s["indices"]) for s in fekete_seq or ()}

    def side(n: int, indices, points: np.ndarray, field: np.ndarray,
             pick: np.ndarray) -> tuple[float, str]:
        if math.comb(len(points), len(indices)) > EXHAUSTIVE_CAP:
            return searched[n][0], "search"
        cols, scale = weighted_columns(monomial_values(indices, points), field, n)
        if scale.min() < math.log(sys.float_info.min) and not field.any():
            # Only a lifted column (field 0) is this small: one on K holds 1.
            base = np.flatnonzero(np.isfinite(q))[np.argmin(scale) // m_t]
            raise InvalidInputError(
                f"degree {n}: w^{n} = exp(-{n} Q) underflows a lifted column"
                f" at Q = {float(q[base])!r}"
            )
        if _lagrange_margin(cols, scale, pick) <= EXCHANGE_TOL:
            ld = _logdet_qr(cols[:, pick], scale[pick])
            if not ld.is_zero:
                return ld.log_abs, "exhaustive"
        return _exhaustive_max(cols, len(indices), scale, searched[n][0]), "exhaustive"

    out = []
    for n in range(1, n_max + 1):
        indices = enumerate_basis(n, d)
        n_pts = len(indices)  # = h_n in d + 1 variables, the lift side's size
        if usable < n_pts:
            raise InvalidInputError(
                f"degree {n} needs {n_pts} points of finite Q, got {usable}"
            )
        # The search refuses a degree whose greedy pick is singular.
        if n not in searched:
            cfg = search_fekete(cand, n, weight)
            searched[n] = cfg.log_weighted_vdm, cfg.indices
        pick = np.sort(searched[n][1])
        lhs_log, lhs_method = side(n, indices, cand.points, q, pick)
        rhs_log, rhs_method = side(n, degree_block(n, d + 1), lift, np.zeros(len(lift)),
                                   lifted[pick])

        expo = diameter_exponent(n, d)
        lhs = math.exp(expo * lhs_log)
        rhs = math.exp(expo * rhs_log)
        top = max(lhs, rhs)
        out.append(
            {
                "n": n,
                "lhs_log": lhs_log,
                "rhs_log": rhs_log,
                "delta_lhs": lhs,
                "delta_rhs": rhs,
                # Where both delta_n underflow, the gap 1 - min/max from the logs.
                "relative_gap": (abs(lhs - rhs) / top if top > 0
                                 else -math.expm1(-expo * abs(lhs_log - rhs_log))),
                "lhs_method": lhs_method,
                "rhs_method": rhs_method,
            }
        )
    return out
