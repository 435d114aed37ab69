"""D-optimal measures against brute-force simplex maximization."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import hermite

from pluripot import domains, fekete, optmeas
from pluripot.domains import AdmissibleWeight
from pluripot.errors import InvalidInputError
from pluripot.fekete import diameter_sequence
from pluripot.gram import DiscreteMeasure, bergman_function, gram_and_bergman, gram_matrix
from pluripot.gram import _basis_columns, _whitened_columns
from pluripot.optmeas import DEFAULT_TOL, SolveReport, solve_optimal_measure
from pluripot.vdm import diameter_exponent

THREE_POINTS = domains.custom(np.array([-1.0, 0.0, 1.0]).astype(complex)[:, None])
SQUARE = domains.product([domains.interval(-1.0, 1.0, 11)] * 2)
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
    return SimpleNamespace(
        measure=DiscreteMeasure(cand, masses),
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
    _, b = gram_and_bergman(rep.measure, w, 2)
    assert (b.max() - 3) / 3 <= 1e-6


def test_kw_gap_zero_at_circle_haar():
    # Haar measure on the circle is D-optimal for every degree
    c = domains.circle(1.0, 64)
    mu = DiscreteMeasure.from_reference(c)
    _, b = gram_and_bergman(mu, ZERO, 5)
    assert abs(b.max() - 6) <= 1e-10


def test_kw_gap_positive_off_optimum():
    mu = DiscreteMeasure(THREE_POINTS, np.array([0.8, 0.1, 0.1]))
    _, b = gram_and_bergman(mu, ZERO, 1)
    assert b.max() - 2 > 0.1
    assert THREE_POINTS.points[np.argmax(b), 0] == pytest.approx(1.0)


def test_support_certificate():
    rep = solve_optimal_measure(THREE_POINTS, ZERO, 2)
    cert = rep.certificate
    assert (cert["n"], cert["N"]) == (2, 3)
    assert cert["support_indices"] == [0, 1, 2]
    assert cert["violations"] == []
    assert all(abs(b - 3.0) <= 3.0 * DEFAULT_TOL for b in cert["B_values"])


def test_monotone_log_det_over_iterations():
    # The solve is deterministic, so a run capped at k iterations reports the
    # k-th iterate; no exchange sweep may lower log det.  On the 11 x 11
    # square at n = 3 the solve starts from the greedy Fekete pick, which is
    # not optimal: the 12th iterate is 1.197 above it.
    log_dets = [
        solve_optimal_measure(SQUARE, ZERO, 3, tol=1e-14, max_iter=k).log_det
        for k in range(1, 13)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(log_dets, log_dets[1:]))
    assert log_dets[-1] > log_dets[0] + 1.1


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
    cert = rep.certificate
    assert cert["violations"] == []
    # B from a Gram built afresh from the reported masses, independently of
    # the solver's last iterate, agrees with the certificate's B.
    support = cert["support_indices"]
    b = bergman_function(
        gram_matrix(rep.measure, weight, n), cand.points[support]
    )
    assert np.allclose(b, cert["B_values"], rtol=1e-12, atol=0)


def test_permuted_candidates_give_the_same_optimum():
    perm = np.random.default_rng(0).permutation(len(SQUARE))
    shuffled = domains.custom(SQUARE.points[perm])
    a = solve_optimal_measure(SQUARE, ZERO, 3)
    b = solve_optimal_measure(shuffled, ZERO, 3)
    assert a.converged and b.converged
    assert a.log_det <= b.log_det + b.kw_gap
    assert b.log_det <= a.log_det + a.kw_gap


def test_iteration_cap_reports_unconverged():
    rep = solve_optimal_measure(SQUARE, ZERO, 3, tol=1e-14, max_iter=3)
    assert rep.converged is False
    assert rep.iterations == 3
    assert rep.certificate["violations"]


@pytest.mark.parametrize(
    "cand, weight",
    [
        (domains.interval(-1.0, 1.0, 201), ZERO),
        (domains.interval(-1.0, 1.0, 201, "chebyshev"), ZERO),
        (domains.torus(2, 21), ZERO),
        (domains.disk(1.0, 12, 40), AdmissibleWeight.quadratic()),
        (SQUARE, ZERO),
    ],
    ids=["interval", "chebyshev", "torus", "disk-quadratic", "square"],
)
def test_start_is_at_least_the_uniform_measure(cand, weight):
    # A run capped at one iteration reports its starting measure.
    for n in range(1, 5):
        start = solve_optimal_measure(cand, weight, n, max_iter=1)
        uniform = gram_matrix(DiscreteMeasure.uniform(cand), weight, n).log_det
        assert start.log_det >= uniform


def test_greedy_start_is_the_interval_design():
    # The greedy pick {-1, 0, 1} is the degree-2 D-optimal design.
    cand = domains.interval(-1.0, 1.0, 201)
    rep = solve_optimal_measure(cand, ZERO, 2)
    assert rep.converged and rep.iterations == 1
    expected = np.zeros(len(cand))
    expected[[0, 100, 200]] = 1 / 3
    assert np.allclose(rep.measure.masses, expected, rtol=0, atol=1e-15)


def test_torus_keeps_the_uniform_start():
    # Uniform is optimal on the torus grid; the greedy pick's log det is lower.
    rep = solve_optimal_measure(domains.torus(2, 21), ZERO, 4)
    assert rep.converged and rep.iterations == 1
    assert abs(rep.log_det) < 1e-10


def test_infinite_weight_points_get_no_starting_mass():
    x = np.linspace(-2.0, 2.0, 41)
    w = AdmissibleWeight.custom(
        lambda p: np.where(np.abs(p[:, 0].real) > 1.0, np.inf, 0.0)
    )
    cand = domains.custom(x.astype(complex)[:, None])
    start = solve_optimal_measure(cand, w, 2, max_iter=1).measure.masses
    assert np.all(start[np.abs(x) > 1.0] == 0.0)
    # The start is the greedy pick: mass 1/3 at three nodes.
    assert np.allclose(np.sort(start)[-3:], 1 / 3, rtol=0, atol=1e-15)
    assert np.count_nonzero(start) == 3


@pytest.mark.parametrize("max_iter", [0, -1])
def test_max_iter_below_one_is_rejected(max_iter):
    with pytest.raises(InvalidInputError):
        solve_optimal_measure(THREE_POINTS, ZERO, 1, max_iter=max_iter)


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
    # circle: Haar is optimal, det G = 1 at every degree
    for n in range(1, 5):
        rep = solve_optimal_measure(c, ZERO, n)
        assert rep.converged
        assert abs(diameter_exponent(n, 1) / 2 * rep.log_det) < 1e-8


def test_report_dict_round():
    rep = solve_optimal_measure(THREE_POINTS, ZERO, 1)
    d = rep.to_dict()
    assert list(d) == [
        "n", "algo", "iterations", "kw_gap", "log_det", "converged",
        "mass_histogram", "certificate", "masses",
    ]
    assert d["converged"] is True
    assert sum(d["mass_histogram"]["counts"]) == 3
    assert d["certificate"] is rep.certificate
    assert d["masses"] == rep.measure.masses.tolist()


def test_mass_histogram_bins_as_numpy_does():
    # Masses at every edge 0.1 k, as linspace and as 0.1 * k, one float to
    # either side of each, and 0 and 1: each alone and all at once, the
    # counts and edges of np.histogram(masses, bins=10, range=(0, 1)).
    edges = np.linspace(0.0, 1.0, 11)
    exact = np.concatenate([edges, 0.1 * np.arange(11)])
    masses = np.concatenate([exact, np.nextafter(exact, -1.0), np.nextafter(exact, 2.0)])
    for x in [masses[i : i + 1] for i in range(len(masses))] + [masses]:
        rep = SolveReport(SimpleNamespace(masses=x), 1, 1, 0.0, 0.0, True, {})
        counts, want_edges = np.histogram(x, bins=10, range=(0.0, 1.0))
        assert rep.to_dict()["mass_histogram"] == {
            "counts": counts.tolist(), "edges": want_edges.tolist()
        }, x


def _chebyshev_grid_with_hermite_nodes(n):
    """The 401-node Chebyshev grid with the weighted Fekete points of degree n
    under Q = x^2 added, the zeros of H_{n+1} over sqrt(2n) (ROADMAP item 4);
    the grid's node at 0 duplicates one and is dropped."""
    nodes = hermite.hermgauss(n + 1)[0] / math.sqrt(2 * n)
    grid = domains.interval(-1.0, 1.0, 401, "chebyshev").points[:, 0].real
    keep = np.abs(grid[:, None] - nodes[None, :]).min(axis=1) > 1e-12
    return domains.custom(np.concatenate([grid[keep], nodes]).astype(complex)[:, None])


@pytest.mark.parametrize(
    "cand, weight, n_max",
    [
        (domains.interval(-1.0, 1.0, 401, "chebyshev"), ZERO, 12),
        (domains.interval(-1.0, 1.0, 401, "chebyshev"), AdmissibleWeight.quadratic(), 12),
        (domains.interval(-1.0, 1.0, 401), ZERO, 12),
        (domains.interval(-1.0, 1.0, 401), AdmissibleWeight.quadratic(), 12),
        (_chebyshev_grid_with_hermite_nodes(12), AdmissibleWeight.quadratic(), 12),
        (domains.circle(1.0, 64), ZERO, 8),
        (domains.circle(0.5, 201), ZERO, 12),
        (domains.disk(1.0, 12, 40), AdmissibleWeight.quadratic(), 4),
        (domains.torus(2, 21), ZERO, 4),
    ],
    ids=["chebyshev", "chebyshev-quadratic", "equispaced", "equispaced-quadratic",
         "chebyshev-hermite-quadratic", "circle", "circle-0.5", "disk-quadratic", "torus"],
)
def test_fekete_values_lie_below_the_kiefer_wolfowitz_bound(cand, weight, n_max):
    # log det is concave on measures, so for any measure nu and the equal
    # masses on any N-subset S, log det G(S) <= log det G(nu) + max B_nu - N
    # (Kiefer-Wolfowitz, Canad. J. Math. 1960).  With G(S) = N^-N |W(S)|^2
    # that bounds every weighted Fekete value, the search's among them.
    # The bound is exact on the Chebyshev grid at n = 2 (margin -1.1e-16).
    for row in diameter_sequence(cand, weight, n_max):
        n, n_dim = row["n"], row["N"]
        rep = solve_optimal_measure(cand, weight, n)
        bound = 0.5 * (rep.log_det + rep.kw_gap + n_dim * math.log(n_dim))
        assert row["log_vdm"] <= bound + 1e-12 * max(1.0, abs(bound)), n


@pytest.mark.parametrize(
    "cand, n, most",
    [
        (domains.interval(-1.0, 1.0, 201), 3, 3),
        (domains.interval(-1.0, 1.0, 201), 4, 3),
        (domains.product([domains.interval(-1.0, 1.0, 21)] * 2), 3, 20),
        (domains.product([domains.interval(-1.0, 1.0, 21)] * 2), 5, 30),
    ],
    ids=["interval-3", "interval-4", "square-3", "square-5"],
)
def test_search_start_and_newton_steps_shorten_the_tail(cand, n, most):
    # Sweeps from the greedy start alone take 9, 5, 66 and 272 iterations
    # here; with the start from the Fekete search's pick and a Newton step
    # on the support masses after each sweep, 2, 2, 10 and 16.
    rep = solve_optimal_measure(cand, ZERO, n)
    assert rep.converged and rep.certificate["violations"] == []
    assert rep.iterations <= most


def test_a_refused_search_keeps_the_start(monkeypatch):
    # An exchange that finds no swap returns the greedy pick, the start
    # itself: its log det does not rise, so the pick is refused and the
    # solve goes on from its own start, with sweeps and Newton steps.
    monkeypatch.setattr(fekete, "exchange", lambda factor, piv: piv[: len(factor)])
    rep = solve_optimal_measure(domains.interval(-1.0, 1.0, 201), ZERO, 3)
    assert rep.converged and rep.certificate["violations"] == []
    assert rep.iterations > 2


@pytest.mark.parametrize(
    "cand, weight, degrees",
    [
        (domains.interval(-1.0, 1.0, 201), ZERO, range(1, 5)),
        (domains.interval(-1.0, 1.0, 401, "chebyshev"), ZERO, range(1, 9)),
        (domains.interval(-1.0, 1.0, 401, "chebyshev"), AdmissibleWeight.quadratic(),
         range(1, 9)),
        (domains.interval(-30.0, 30.0, 601), AdmissibleWeight.quadratic(), range(1, 5)),
        (domains.disk(1.0, 12, 40), AdmissibleWeight.quadratic(), range(1, 5)),
        (domains.product([domains.interval(-1.0, 1.0, 21)] * 2), ZERO, (3, 5)),
    ],
    ids=["interval", "chebyshev", "chebyshev-quadratic", "interval60-quadratic",
         "disk-quadratic", "square"],
)
def test_the_restart_picks_what_the_search_picks(cand, weight, degrees, monkeypatch):
    # A degree whose first iterate misses exchanges on the factor of its
    # greedy start; the search factors the same columns, flooring only the
    # relative weights that underflow (on [-30, 30] under Q = x^2), which
    # are never picked.  So the two picks agree index for index.
    picks = []
    exchange = fekete.exchange

    def recorded(*args):
        picks.append(exchange(*args))
        return picks[-1]

    monkeypatch.setattr(fekete, "exchange", recorded)
    restarted = 0
    for n in degrees:
        picks.clear()
        rep = solve_optimal_measure(cand, weight, n)
        assert len(picks) == (rep.iterations > 1), n
        if picks:
            restarted += 1
            pick = picks[0].tolist()
            assert pick == list(fekete.search_fekete(cand, n, weight).indices), n
    assert restarted > 0


def _reference_sweep(masses, y, b):
    """optmeas._exchange_sweep in its straightforward form, a fresh array
    per operation: the oracle the buffered sweep matches bit for bit."""
    n_dim = y.shape[0]
    top = np.argsort(-b, kind="stable")[:n_dim]
    s = np.union1d(np.nonzero(masses)[0], top)
    s = s[np.argsort(b[s], kind="stable")]
    ys = y[:, s]
    ys_h = ys.conj()
    w = ys.copy()
    m = masses[s]
    for i in range(len(s)):
        bs = np.einsum("ij,ij->j", ys_h, w).real
        h = ys_h[:, i] @ w
        d = bs - bs[i]
        curv = bs * bs[i] - np.abs(h) ** 2
        t = np.where(d > 0, np.inf, -np.inf)
        np.divide(d, 2.0 * curv, out=t, where=curv > 0)
        t = np.clip(t, -m, m[i])
        gain = t * d - t * t * curv
        gain[i] = 0.0
        j = int(np.argmax(gain))
        if not gain[j] > 0:
            continue
        tj, bj, bi, hij = t[j], bs[j], bs[i], h[j]
        m[j] = 0.0 if tj == -m[j] else m[j] + tj
        m[i] = 0.0 if tj == m[i] else m[i] - tj
        det = (1.0 + tj * bj) * (1.0 - tj * bi) + tj * tj * abs(hij) ** 2
        p = np.array(
            [
                [tj * (1.0 - tj * bi), tj * tj * np.conj(hij)],
                [tj * tj * hij, -tj * (1.0 + tj * bj)],
            ]
        ) / det
        v = w[:, [j, i]]
        w -= v @ (p @ np.stack([ys_h[:, j] @ w, h]))
    masses[s] = m


_RNG_SET = np.random.default_rng(7).normal(size=(60, 2)) @ [1.0, 1j]


@pytest.mark.parametrize(
    "cand, weight, n",
    [
        (domains.interval(-1.0, 1.0, 201), ZERO, 3),
        (domains.interval(-1.0, 1.0, 201), ZERO, 4),
        (domains.product([domains.interval(-1.0, 1.0, 21, "chebyshev")] * 2), ZERO, 4),
        (domains.disk(1.0, 12, 40), AdmissibleWeight.quadratic(), 3),
        (domains.disk(1.0, 20, 48), ZERO, 4),
        (domains.custom(_RNG_SET[:, None]), ZERO, 3),
    ],
    ids=["interval-3", "interval-4", "chebyshev-square", "disk-quadratic", "disk",
         "random"],
)
def test_exchange_sweep_matches_its_reference(cand, weight, n, monkeypatch):
    # One sweep from a random measure on about 30% of the nodes, then whole
    # solves: iteration counts, log dets and masses equal bit for bit.  The
    # unweighted disk's solve ends on 25 support nodes, against N = 5.
    rng = np.random.default_rng(n)
    masses = rng.random(len(cand)) * (rng.random(len(cand)) < 0.3)
    mu = DiscreteMeasure(cand, masses / masses.sum())
    cols, _ = _basis_columns(cand.points, weight(cand.points), n)
    y = _whitened_columns(gram_matrix(mu, weight, n), cols)
    b = np.sum(np.abs(y) ** 2, axis=0)
    got, want = mu.masses.copy(), mu.masses.copy()
    optmeas._exchange_sweep(got, y, b)
    _reference_sweep(want, y, b)
    assert np.array_equal(got, want)

    rep = solve_optimal_measure(cand, weight, n)
    monkeypatch.setattr(optmeas, "_exchange_sweep", _reference_sweep)
    ref = solve_optimal_measure(cand, weight, n)
    assert (rep.iterations, rep.log_det) == (ref.iterations, ref.log_det)
    assert np.array_equal(rep.measure.masses, ref.measure.masses)
