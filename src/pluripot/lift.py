"""Weighted-VDM maxima on K against homogeneous ones on its lift to C^{d+1}.

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

import math

import numpy as np

from .basis import degree_block, enumerate_basis
from .domains import AdmissibleWeight, CandidateSet, weight_power
from .errors import InvalidInputError
from .fekete import search_fekete
from .vdm import _logdet_qr, diameter_exponent, monomial_values, pivoted_qr

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
