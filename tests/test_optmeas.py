"""D-optimal measures against brute-force simplex maximization."""

import itertools
import math

import numpy as np
import pytest

from pluripot import domains
from pluripot.domains import AdmissibleWeight
from pluripot.errors import NotConvergedError
from pluripot.gram import DiscreteMeasure, bergman_function, gram_matrix
from pluripot.optmeas import (
    DEFAULT_TOL,
    SolveReport,
    kw_gap,
    optimal_det_sequence,
    solve_optimal_measure,
    support_certificate,
)

THREE_POINTS = domains.custom(np.array([-1.0, 0.0, 1.0]).astype(complex)[:, None])
ZERO = AdmissibleWeight.zero()


def _brute_force_simplex(cand, weight, n, step=1e-3):
    """Grid search over the probability simplex for the det-G maximizer."""
    m = len(cand)
    assert m == 3
    best, best_w = -math.inf, None
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    for a, b in itertools.product(ticks, ticks):
        c = 1.0 - a - b
        if c < -1e-12:
            continue
        masses = np.array([a, b, max(c, 0.0)])
        masses = masses / masses.sum()
        try:
            sys = gram_matrix(DiscreteMeasure(cand, masses), weight, n)
        except Exception:
            continue
        if sys.log_det > best:
            best, best_w = sys.log_det, masses
    return best_w, best


def _multiplicative_reference(cand, weight, n, tol=DEFAULT_TOL):
    """Independent oracle: the classical multiplicative update masses *= B/N.

    det G is nondecreasing under it (Titterington 1976); it is far slower
    than the library's vertex exchange, so it serves only as a cross-check on
    small candidate sets.
    """
    masses = DiscreteMeasure.uniform(cand).masses
    for it in range(1, 10 * len(cand) * n * (n + 1) + 1):
        sys = gram_matrix(DiscreteMeasure(cand, masses), weight, n)
        b = bergman_function(sys, cand.points)
        gap = float(b.max() - sys.size)
        if gap / sys.size <= tol:
            break
        masses = masses * b / sys.size
        masses = masses / masses.sum()
    return SolveReport(
        measure=DiscreteMeasure(cand, masses),
        n=n,
        iterations=it,
        kw_gap=gap,
        log_det=sys.log_det,
        converged=gap / sys.size <= tol,
    )


SOLVERS = {
    "multiplicative": _multiplicative_reference,
    "vertex_exchange": solve_optimal_measure,
}


@pytest.mark.parametrize("algo", list(SOLVERS))
def test_three_point_design_degree_1(algo):
    rep = SOLVERS[algo](THREE_POINTS, ZERO, 1)
    assert rep.converged
    assert rep.kw_gap / 2 <= 1e-6
    assert np.allclose(rep.measure.masses, [0.5, 0.0, 0.5], atol=1e-4)


@pytest.mark.parametrize("algo", list(SOLVERS))
def test_three_point_design_degree_2(algo):
    rep = SOLVERS[algo](THREE_POINTS, ZERO, 2)
    assert rep.converged
    assert np.allclose(rep.measure.masses, [1 / 3, 1 / 3, 1 / 3], atol=1e-4)


def test_brute_force_oracle_agrees():
    for n in (1, 2):
        masses, log_det = _brute_force_simplex(THREE_POINTS, ZERO, n, step=1e-2)
        rep = solve_optimal_measure(THREE_POINTS, ZERO, n)
        # solver stops at kw_gap/N <= 1e-6, so allow matching log-det slack
        assert rep.log_det >= log_det - 1e-5
        assert np.allclose(rep.measure.masses, masses, atol=2e-2)


def test_weighted_design_on_interval():
    cand = domains.interval(-1.0, 1.0, 21)
    w = AdmissibleWeight.quadratic()
    rep = solve_optimal_measure(cand, w, 2)
    assert rep.converged
    gap, _ = kw_gap(rep.measure, w, 2)
    assert gap / 3 <= 1e-6


def test_kw_gap_zero_at_circle_haar():
    # Haar measure on the circle is D-optimal for every degree
    c = domains.circle(1.0, 64)
    mu = DiscreteMeasure.from_reference(c)
    gap, _ = kw_gap(mu, ZERO, 5)
    assert abs(gap) <= 1e-10


def test_kw_gap_positive_off_optimum():
    mu = DiscreteMeasure(THREE_POINTS, np.array([0.8, 0.1, 0.1]))
    gap, point = kw_gap(mu, ZERO, 1)
    assert gap > 0.1
    assert point[0] == pytest.approx(1.0)


def test_support_certificate():
    rep = solve_optimal_measure(THREE_POINTS, ZERO, 2)
    cert = support_certificate(rep.measure, ZERO, 2, tol=1e-4)
    assert cert["N"] == 3
    assert cert["violations"] == []
    assert all(abs(b - 3.0) < 1e-3 for b in cert["B_values"])


def test_monotone_log_det_over_iterations():
    # The solve is deterministic, so a run capped at k iterations reports the
    # k-th iterate; no exchange sweep may lower log det.
    cand = domains.interval(-1.0, 1.0, 9)
    log_dets = [
        solve_optimal_measure(cand, ZERO, 2, tol=1e-14, max_iter=k).log_det
        for k in range(1, 13)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(log_dets, log_dets[1:]))
    assert log_dets[-1] > log_dets[0] + 0.9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_guest_design_on_interval(n):
    # Degree-n D-optimal design on [-1, 1]: mass 1/(n+1) on the roots of
    # (1 - x^2) P_n'(x) (Guest; Hoel 1958).  Those off the 201-node grid are
    # added to it, so the exact optimum lies in the candidate set.
    grid = np.linspace(-1.0, 1.0, 201)
    dp = np.polynomial.legendre.Legendre.basis(n).deriv()
    nodes = np.sort(np.concatenate([[-1.0, 1.0], dp.roots().real]))
    extra = [x for x in nodes if np.min(np.abs(grid - x)) > 1e-12]
    # n = 2: {-1, 0, 1} is on the grid; n = 3 adds +-1/sqrt(5),
    # n = 4 adds +-sqrt(3/7).
    assert len(extra) == (0 if n == 2 else 2)
    x = np.concatenate([grid, extra])
    cand = domains.custom(x.astype(complex)[:, None])
    at = [int(np.argmin(np.abs(x - node))) for node in nodes]
    guest = np.zeros(len(x))
    guest[at] = 1 / (n + 1)
    exact = gram_matrix(DiscreteMeasure(cand, guest), ZERO, n).log_det
    rep = solve_optimal_measure(cand, ZERO, n)
    assert rep.converged
    # Kiefer bound: log det of any design <= optimum <= its log det + gap.
    assert rep.log_det <= exact + 1e-12
    assert exact <= rep.log_det + rep.kw_gap
    assert np.allclose(rep.measure.masses[at], 1 / (n + 1), atol=1e-3)


def test_quadratic_weight_degree_1_converges():
    # Q = x^2, n = 1: the optimum puts 1/2 on +-a maximizing a^2 exp(-4 a^2),
    # so a = 1/2 (a grid node) and log det = 2 log(1/2) - 1.
    cand = domains.interval(-1.0, 1.0, 201)
    rep = solve_optimal_measure(cand, AdmissibleWeight.quadratic(), 1)
    assert rep.converged
    exact = 2.0 * math.log(0.5) - 1.0
    assert rep.log_det <= exact + 1e-12
    assert exact <= rep.log_det + rep.kw_gap
    assert np.allclose(rep.measure.masses[[50, 150]], 0.5, atol=1e-3)


@pytest.mark.parametrize("n", [1, 2])
def test_kiefer_wolfowitz_on_weighted_disk(n):
    cand = domains.disk(1.0, 4, 8)
    w = AdmissibleWeight.quadratic()
    rep = solve_optimal_measure(cand, w, n)
    n_dim = n + 1
    assert rep.converged
    b = bergman_function(gram_matrix(rep.measure, w, n), cand.points)
    assert b.max() <= n_dim * (1 + DEFAULT_TOL)
    ref = _multiplicative_reference(cand, w, n)
    # Each measure's log det + kw_gap bounds the optimum, hence the other.
    assert rep.log_det <= ref.log_det + ref.kw_gap
    assert ref.log_det <= rep.log_det + rep.kw_gap


@pytest.mark.parametrize(
    "cand, weight, n",
    [
        (domains.interval(-1.0, 1.0, 201), ZERO, 2),
        (domains.interval(-1.0, 1.0, 201), AdmissibleWeight.quadratic(), 4),
        (domains.interval(-1.0, 1.0, 201, "chebyshev"), ZERO, 2),
        (domains.disk(1.0, 4, 8), AdmissibleWeight.quadratic(), 3),
    ],
    ids=["interval", "interval-quadratic", "chebyshev", "disk-quadratic"],
)
def test_converged_measure_passes_its_certificate(cand, weight, n):
    # Each case stopped with B on a support node just outside N(1 +- tol)
    # under a one-sided (max B only) stopping test.
    rep = solve_optimal_measure(cand, weight, n)
    assert rep.converged
    assert support_certificate(rep.measure, weight, n)["violations"] == []


def test_permuted_candidates_give_the_same_optimum():
    square = domains.product([domains.interval(-1.0, 1.0, 11)] * 2)
    perm = np.random.default_rng(0).permutation(len(square))
    shuffled = domains.custom(square.points[perm])
    a = solve_optimal_measure(square, ZERO, 3)
    b = solve_optimal_measure(shuffled, ZERO, 3)
    assert a.converged and b.converged
    assert a.log_det <= b.log_det + b.kw_gap
    assert b.log_det <= a.log_det + a.kw_gap


def test_not_converged_raises_with_partial():
    cand = domains.interval(-1.0, 1.0, 9)
    with pytest.raises(NotConvergedError) as exc:
        solve_optimal_measure(
            cand, ZERO, 2, tol=1e-14, max_iter=3, raise_on_cap=True
        )
    assert exc.value.partial is not None
    assert exc.value.partial.iterations == 3


def test_zero_weight_points_are_dropped():
    w = AdmissibleWeight.custom(
        lambda p: np.where(np.abs(p[:, 0].real) > 1.5, np.inf, 0.0)
    )
    cand = domains.custom(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]).astype(complex)[:, None])
    rep = solve_optimal_measure(cand, w, 1)
    assert rep.measure.masses[0] == 0.0 and rep.measure.masses[-1] == 0.0
    assert np.allclose(rep.measure.masses[[1, 3]], 0.5, atol=1e-4)


def test_optimal_det_sequence_trend():
    c = domains.circle(1.0, 64)
    seq = optimal_det_sequence(c, ZERO, 4)
    # circle: Haar is optimal, det G = 1 at every degree
    for rec in seq:
        assert rec["converged"]
        assert abs(rec["normalized_log_det"]) < 1e-8


def test_report_dict_round():
    rep = solve_optimal_measure(THREE_POINTS, ZERO, 1)
    d = rep.to_dict()
    assert d["converged"] is True
    assert sum(d["mass_histogram"]["counts"]) == 3
