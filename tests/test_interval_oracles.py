"""Closed-form Fekete points of [-1, 1] against the search and the optimal measure.

Under Q = x^2 the weighted Fekete points of degree n are the zeros of the
Hermite polynomial H_{n+1} divided by sqrt(2n), and

    log W_n = 1/2 sum_{k <= N} k log k - n (n + 1) / 4 (log 4n + 1)

with N = n + 1 (Saff and Totik, Logarithmic Potentials with External
Fields, 1997, ch. IV.5).  Without a weight they are the Gauss-Lobatto
nodes, +-1 and the zeros of P_n'.  In d = 1 the optimal measure of a set
holding the Fekete points is equal mass on them, with log det G =
-N log N + 2 log W_n.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import hermite, legendre

from pluripot import domains
from pluripot.domains import AdmissibleWeight
from pluripot.fekete import diameter_sequence
from pluripot.optmeas import solve_optimal_measure

QUADRATIC = AdmissibleWeight.quadratic()
ZERO = AdmissibleWeight.zero()


def _fekete_nodes(n, weight):
    if weight is QUADRATIC:
        return hermite.hermgauss(n + 1)[0] / math.sqrt(2 * n)
    return np.concatenate([[-1.0], legendre.Legendre.basis(n).deriv().roots(), [1.0]])


def _log_w(x, n, weight):
    """log |W| of the real nodes x from their pairwise distances."""
    i, j = np.triu_indices(len(x), 1)
    q = x**2 if weight is QUADRATIC else np.zeros(len(x))
    return float(np.log(np.abs(x[i] - x[j])).sum() - n * q.sum())


def _hermite_log_w(n):
    big_n = n + 1
    half = 0.5 * sum(k * math.log(k) for k in range(1, big_n + 1))
    return half - n * (n + 1) / 4 * (math.log(4 * n) + 1)


@pytest.mark.parametrize("n", [1, 4, 8, 12, 16, 20])
def test_hermite_nodes_have_the_closed_form_value(n):
    assert _log_w(_fekete_nodes(n, QUADRATIC), n, QUADRATIC) == pytest.approx(
        _hermite_log_w(n), rel=1e-13, abs=1e-13
    )


@pytest.mark.parametrize(
    "weight, n",
    [(QUADRATIC, n) for n in (4, 8, 12, 16)] + [(ZERO, n) for n in (4, 8, 12)],
    ids=[f"quadratic-{n}" for n in (4, 8, 12, 16)] + [f"zero-{n}" for n in (4, 8, 12)],
)
def test_optimal_measure_reaches_the_fekete_value(weight, n):
    # The 401-node Chebyshev grid with the exact nodes added; a grid node
    # that duplicates one (0, and +-1 without a weight) is dropped.
    grid = domains.interval(-1.0, 1.0, 401, "chebyshev").points[:, 0].real
    x = _fekete_nodes(n, weight)
    keep = np.abs(grid[:, None] - x[None, :]).min(axis=1) > 1e-12
    cand = domains.custom(np.concatenate([grid[keep], x]).astype(complex)[:, None])
    rep = solve_optimal_measure(cand, weight, n)
    assert rep.converged
    big_n = n + 1
    want = -big_n * math.log(big_n) + 2 * _log_w(x, n, weight)
    assert abs(rep.log_det - want) <= 1e-8


@pytest.mark.parametrize("rule", ["equispaced", "chebyshev"])
@pytest.mark.parametrize("weight", [QUADRATIC, ZERO], ids=["quadratic", "zero"])
def test_search_stays_below_the_fekete_value(rule, weight):
    # A grid subset is a subset of [-1, 1], whose maximum is log W_n.
    seq = diameter_sequence(domains.interval(-1.0, 1.0, 401, rule), weight, 20)
    for rec in seq:
        n = rec["n"]
        bound = _log_w(_fekete_nodes(n, weight), n, weight)
        assert rec["log_vdm"] <= bound + 1e-12 * max(1.0, abs(bound)), n
