"""Closed forms the benchmark checks pluripot's reports against.

Everything here is computed with numpy alone, apart from the program under
test: no module of this file imports pluripot.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.polynomial import legendre

# Weighted unit disk, Q = |z|^2: the energy-check right-hand side
# 3/4 + (1/2) log 2 and the weighted transfinite diameter e^{-3/4}/sqrt(2).
WEIGHTED_DISK_RHS = 0.75 + 0.5 * math.log(2.0)
WEIGHTED_DISK_DELTA = math.exp(-0.75) / math.sqrt(2.0)


def disk_rhs(radius: float) -> float:
    """Energy-check right-hand side -log(radius) of the unweighted disk."""
    return -math.log(radius)


def guest_nodes(n: int) -> np.ndarray:
    """Support of the degree-n D-optimal design on [-1, 1], ascending.

    The design puts equal mass on the n + 1 roots of (1 - x^2) P_n'(x)
    (Guest 1958; Hoel 1958).
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    inner = legendre.Legendre.basis(n).deriv().roots() if n >= 2 else []
    return np.sort(np.concatenate([[-1.0], np.real(inner), [1.0]]))


def snap_to_grid(nodes: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The grid node nearest to each node."""
    grid = np.asarray(grid)
    return grid[np.argmin(np.abs(grid[None, :] - np.asarray(nodes)[:, None]), axis=1)]


def monomial_exponents(n: int, d: int) -> list[tuple[int, ...]]:
    """Every alpha in N^d with |alpha| <= n, in no particular order."""
    return [a for a in itertools.product(range(n + 1), repeat=d) if sum(a) <= n]


def log_abs_det_monomials(points: np.ndarray, n: int) -> float:
    """log |det [z^alpha]| over all monomials of degree <= n at N points.

    A reordering of rows or columns changes only the sign, so the monomial
    order does not matter.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts[:, None]
    exps = np.array(monomial_exponents(n, pts.shape[1]))
    mat = np.prod(pts[None, :, :] ** exps[:, None, :], axis=2)
    _, logabs = np.linalg.slogdet(mat)
    return float(logabs)


def design_log_det(nodes: np.ndarray, n: int) -> float:
    """log det of the degree-n monomial Gram of equal masses on n + 1 nodes.

    G = V V^T / N for the square Vandermonde V, so log det G is
    2 log |det V| - N log N.
    """
    nodes = np.asarray(nodes, dtype=float)
    big_n = len(nodes)
    if big_n != n + 1:
        raise ValueError(f"degree {n} needs {n + 1} nodes, got {big_n}")
    return 2.0 * log_abs_det_monomials(nodes, n) - big_n * math.log(big_n)


def roots_of_unity_log_vdm(big_n: int, radius: float) -> float:
    """log |VDM| of N equispaced points on |z| = r: N^{N/2} r^{N(N-1)/2}."""
    return 0.5 * big_n * math.log(big_n) + 0.5 * big_n * (big_n - 1) * math.log(radius)


def circle_delta(n: int, radius: float) -> float:
    """Degree-n diameter of N = n + 1 roots of unity on |z| = r: r N^{1/n}."""
    return math.exp(2.0 * roots_of_unity_log_vdm(n + 1, radius) / (n * (n + 1)))


def interval_chebyshev(k: int, a: float = -1.0, b: float = 1.0) -> float:
    """Chebyshev constant of x^k on [a, b]: ((b - a)/2)^k 2^{1-k}.

    Exact on the Chebyshev extrema grid of m nodes when k divides m - 1,
    because the grid then holds every extremum of T_k.
    """
    return ((b - a) / 2.0) ** k * 2.0 ** (1 - k)


def circle_chebyshev(k: int, radius: float) -> float:
    """Chebyshev constant of z^k on |z| = r (on >= k + 1 roots of unity)."""
    return radius**k


def bergman_sup(n: int, d: int) -> float:
    """M_n = sqrt(N) for the uniform measure on a circle or torus grid."""
    return math.sqrt(math.comb(n + d, d))


def rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)
