"""Fekete searches against exhaustive and closed-form oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest

from pluripot import domains, fekete
from pluripot.domains import AdmissibleWeight
from pluripot.errors import InvalidInputError
from pluripot.gram import _basis_columns
from pluripot.vdm import log_abs_weighted_vdm


def _exhaustive_best(cand, n, weight):
    n_pts = n + 1  # d = 1 only
    best = -math.inf
    for combo in itertools.combinations(range(len(cand)), n_pts):
        ld = log_abs_weighted_vdm(cand.points[list(combo)], n, weight)
        if not ld.is_zero:
            best = max(best, ld.log_abs)
    return best


def test_search_matches_exhaustive_small():
    rng = np.random.default_rng(5)
    w = AdmissibleWeight.quadratic()
    for trial in range(5):
        pts = rng.normal(size=9) + 1j * rng.normal(size=9)
        cand = domains.custom(pts[:, None])
        for n in (1, 2, 3):
            cfg = fekete.search_fekete(cand, n, w)
            oracle = _exhaustive_best(cand, n, w)
            assert cfg.log_weighted_vdm <= oracle + 1e-9
            assert cfg.log_weighted_vdm >= oracle - 1e-6, (trial, n)


def test_circle_roots_of_unity_value():
    # max |VDM| over the circle is N^{N/2}, attained at rotated roots of unity
    c = domains.circle(1.0, 60)
    for n in (2, 3, 4, 5):
        cfg = fekete.search_fekete(c, n, AdmissibleWeight.zero())
        n_dim = n + 1
        assert cfg.log_weighted_vdm == pytest.approx(
            0.5 * n_dim * math.log(n_dim), rel=1e-10
        )


def test_exchange_improves_or_keeps():
    c = domains.interval(-1.0, 1.0, 40)
    w = AdmissibleWeight.zero()
    greedy = fekete.search_fekete(c, 6, w, max_sweeps=0)
    refined = fekete.search_fekete(c, 6, w)
    assert refined.log_weighted_vdm >= greedy.log_weighted_vdm - 1e-12


def test_greedy_needs_enough_candidates():
    c = domains.interval(-1.0, 1.0, 3)
    with pytest.raises(InvalidInputError):
        fekete.search_fekete(c, 5, AdmissibleWeight.zero(), max_sweeps=0)


def test_search_without_a_unisolvent_subset_raises():
    # 7 points on a line in C^2: no 6 of them are unisolvent at degree 2
    pts = np.array([[t, 2 * t] for t in np.linspace(-1.0, 1.0, 7)], dtype=complex)
    message = "the greedy 6-point pick at degree 2 is numerically singular under the rank rule"
    with pytest.raises(InvalidInputError, match=message):
        fekete.search_fekete(domains.custom(pts), 2, AdmissibleWeight.zero())


def test_search_names_the_rank_rule_at_the_degree_cap():
    # In d = 1 any 38 distinct points are unisolvent; what fails at n = 37
    # on the 401-node interval is the rank rule on the monomial columns.
    cand = domains.interval(-1.0, 1.0, 401, "chebyshev")
    fekete.search_fekete(cand, 36, AdmissibleWeight.zero(), max_sweeps=0)
    message = (r"the greedy 38-point pick at degree 37 is numerically singular under the rank"
               r" rule \(an R diagonal entry at most 1e-13 of the largest\): the basis may be"
               r" too ill-conditioned at this degree")
    with pytest.raises(InvalidInputError, match=message):
        fekete.search_fekete(cand, 37, AdmissibleWeight.zero())


def test_weight_positive_at_too_few_points_raises():
    c = domains.interval(-1.0, 1.0, 3)
    w = AdmissibleWeight.custom(lambda p: np.where(np.abs(p[:, 0]) > 0.5, np.inf, 0.0))
    fekete.search_fekete(c, 2, AdmissibleWeight.zero())
    with pytest.raises(InvalidInputError):
        fekete.search_fekete(c, 2, w)  # only 1 finite point, degree 2 needs 3


def _random_c2():
    rng = np.random.default_rng(11)
    return domains.custom(rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2)))


def _chebyshev_square():
    return domains.product([domains.interval(-1.0, 1.0, 21, "chebyshev")] * 2)


@pytest.mark.parametrize(
    "make, weight, n_max",
    [
        (lambda: domains.torus(2, 21), AdmissibleWeight.zero(), 6),
        (lambda: domains.disk(1.0, 30, 24), AdmissibleWeight.quadratic(), 8),
        (_random_c2, AdmissibleWeight.zero(), 4),
        (lambda: domains.interval(-1.0, 1.0, 401), AdmissibleWeight.zero(), 14),
        (_chebyshev_square, AdmissibleWeight.zero(), 8),
    ],
    ids=["torus", "disk-quadratic", "random-c2", "interval401", "chebyshev-square"],
)
def test_exchange_ends_at_a_local_maximum(make, weight, n_max):
    # The search updates C = V^{-1} A in place, by one BLAS rank-1 call per
    # swap (geru on the complex sets, ger on the two real ones, which swap
    # from n = 3 on); recomputed from scratch, no unselected candidate may
    # still offer a gain |C_jc| above 1.
    cand = make()
    for n in range(1, n_max + 1):
        cfg = fekete.search_fekete(cand, n, weight)
        amat, _ = _basis_columns(cand.points, weight(cand.points), n)
        coef = np.linalg.solve(amat[:, list(cfg.indices)], amat)
        coef[:, list(cfg.indices)] = 0.0
        assert np.abs(coef).max() <= 1 + 1e-9, n


def test_exact_tie_goes_to_the_lowest_candidate():
    # On the 11x11 square at n = 3 the first sweep finds candidates 66 and
    # 77 with the same gain, 1.12, up to rounding in C; the lower index wins,
    # and the search ends at the local maximum reached through it.
    sq = domains.product([domains.interval(-1.0, 1.0, 11)] * 2)
    cfg = fekete.search_fekete(sq, 3, AdmissibleWeight.zero())
    assert sorted(cfg.indices) == [0, 5, 10, 24, 30, 66, 76, 110, 115, 120]


TORUS_41_N12 = [
    0, 9, 28, 61, 76, 97, 130, 148, 155, 162, 168, 218, 227, 248, 276, 283,
    297, 305, 314, 363, 376, 383, 410, 434, 455, 480, 504, 510, 514, 528, 573,
    583, 607, 632, 642, 663, 687, 694, 701, 718, 722, 753, 773, 780, 791, 839,
    866, 871, 891, 895, 926, 942, 987, 998, 1003, 1013, 1022, 1073, 1092,
    1099, 1118, 1130, 1144, 1151, 1164, 1189, 1210, 1220, 1280, 1287, 1300,
    1338, 1349, 1359, 1366, 1397, 1414, 1417, 1427, 1453, 1477, 1487, 1515,
    1525, 1544, 1576, 1589, 1604, 1614, 1635, 1664,
]


def test_torus_search_selection_is_pinned():
    # The 41 x 41 torus at n = 12 takes hundreds of swaps, so a change in
    # how C is updated that alters a single gain comparison moves this set,
    # whether the degree is searched alone or as the end of a sequence.
    torus = domains.torus(2, 41)
    cfg = fekete.search_fekete(torus, 12, AdmissibleWeight.zero())
    assert sorted(cfg.indices) == TORUS_41_N12
    seq = fekete.diameter_sequence(torus, AdmissibleWeight.zero(), 12)
    assert sorted(seq[-1]["indices"]) == TORUS_41_N12


def test_greedy_skips_zero_weight_points():
    pts = np.linspace(-1.0, 1.0, 12).astype(complex)
    cand = domains.custom(pts[:, None])
    w = AdmissibleWeight.custom(
        lambda p: np.where(p[:, 0].real > 0, np.inf, 0.0)
    )
    cfg = fekete.search_fekete(cand, 3, w)
    assert all(pts[i].real <= 0 for i in cfg.indices)


@pytest.mark.parametrize(
    "q",
    [
        lambda p: np.full(len(p), 300.0),
        lambda p: np.where(np.isclose(p[:, 0], 1.0), 0.0, 300.0),
    ],
    ids=["every-point", "all-but-one"],
)
def test_search_where_w_n_underflows(q):
    # At n = 3, w^3 = e^-900 underflows to 0 at every point of Q = 300.  The
    # pick once took those points in input order, log 2 below the maximum.
    cand = domains.circle(1.0, 6)
    w = AdmissibleWeight.custom(q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = fekete.search_fekete(cand, 3, w)
    assert cfg.log_weighted_vdm == pytest.approx(_exhaustive_best(cand, 3, w), rel=1e-14)


def _constant_300(p):
    return np.full(len(p), 300.0)


@pytest.mark.parametrize(
    "cand, weight, n_max",
    [
        (domains.circle(1.0, 64), AdmissibleWeight.zero(), 6),
        (domains.torus(2, 21), AdmissibleWeight.zero(), 6),
        (domains.disk(1.0, 12, 40), AdmissibleWeight.quadratic(), 6),
        (domains.interval(-1.0, 1.0, 24, "chebyshev"), AdmissibleWeight.quadratic(), 8),
        (domains.circle(1.0, 6), AdmissibleWeight.custom(_constant_300), 3),
        (domains.circle(1.1, 201), AdmissibleWeight.zero(), 3),
    ],
    ids=["circle", "torus", "disk-quadratic", "chebyshev-quadratic", "underflow", "circle-tie"],
)
def test_sequence_matches_single_searches(cand, weight, n_max):
    # The sequence reads each degree's basis off one degree-n_max table,
    # whose powers may round 1 ulp apart from a single search's.  On the
    # r = 1.1 circle at n = 2 that moves the pick to another tied set.
    seq = fekete.diameter_sequence(cand, weight, n_max)
    assert [rec["n"] for rec in seq] == list(range(1, n_max + 1))
    for rec in seq:
        n = rec["n"]
        cfg = fekete.search_fekete(cand, n, weight)
        assert rec["log_vdm"] == pytest.approx(cfg.log_weighted_vdm, rel=1e-12, abs=0.0)
        if sorted(rec["indices"]) != sorted(cfg.indices):
            tied = log_abs_weighted_vdm(cand.points[rec["indices"]], n, weight).log_abs
            assert tied == pytest.approx(cfg.log_weighted_vdm, rel=1e-15, abs=0.0), n


def test_sequence_evaluates_the_basis_and_weight_once(monkeypatch):
    calls = {"monomials": 0, "weight": 0}
    monomial_values = fekete.monomial_values

    def spy(indices, points):
        calls["monomials"] += 1
        return monomial_values(indices, points)

    def q(p):
        calls["weight"] += 1
        return np.abs(p[:, 0]) ** 2

    monkeypatch.setattr(fekete, "monomial_values", spy)
    fekete.diameter_sequence(domains.disk(1.0, 12, 40), AdmissibleWeight.custom(q), 6)
    assert calls == {"monomials": 1, "weight": 1}


def test_empirical_measure():
    c = domains.circle(1.0, 20)
    cfg = fekete.search_fekete(c, 3, AdmissibleWeight.zero())
    mu = fekete.empirical_measure(cfg, c)
    assert mu.masses.sum() == pytest.approx(1.0)
    assert np.count_nonzero(mu.masses) == 4
    assert np.allclose(mu.masses[list(cfg.indices)], 0.25)


def test_diameter_sequence_circle_oracle():
    c = domains.circle(1.0, 201)
    seq = fekete.diameter_sequence(c, AdmissibleWeight.zero(), 12)
    for rec in seq[1:]:
        oracle = rec["N"] ** (1.0 / rec["n"])
        assert rec["delta_n"] == pytest.approx(oracle, rel=5e-3)


def test_extrapolation_recovers_synthetic_limit():
    # synthetic sequence with the generic N^{c/n} prefactor
    limit = 0.7
    seq = [
        {"n": n, "delta_n": limit * (n + 1.0) ** (1.0 / n)}
        for n in range(1, 21)
    ]
    est = fekete.extrapolate_diameter(seq)
    assert est == pytest.approx(limit, rel=5e-3)


def test_extrapolation_degenerate_inputs():
    one = [{"n": 3, "delta_n": 0.5}]
    assert fekete.extrapolate_diameter(one) == 0.5


def test_extrapolation_of_two_degrees_is_not_delta_1():
    # log(n)/n is 0 at n = 1, so a fit of two degrees on [1, log(n)/n]
    # returned delta_1 = 2 on the circle.  On [1, 1/n] it gives
    # delta_2^2 / delta_1: 1.499 here, and 3 / 2 on a grid holding the
    # cube roots of unity.
    seq = fekete.diameter_sequence(domains.circle(1.0, 64), AdmissibleWeight.zero(), 2)
    delta_1, delta_2 = (rec["delta_n"] for rec in seq)
    assert delta_1 == pytest.approx(2.0, rel=1e-14)
    est = fekete.extrapolate_diameter(seq)
    assert est == pytest.approx(delta_2**2 / delta_1, rel=1e-14)
    assert est == pytest.approx(1.5, rel=1e-2)


def test_scaling_covariance():
    # delta_n(r K) = r * delta_n(K) for the unweighted diameter
    seq1 = fekete.diameter_sequence(
        domains.circle(1.0, 40), AdmissibleWeight.zero(), 5
    )
    seq2 = fekete.diameter_sequence(
        domains.circle(0.5, 40), AdmissibleWeight.zero(), 5
    )
    for a, b in zip(seq1, seq2):
        assert b["delta_n"] == pytest.approx(0.5 * a["delta_n"], rel=1e-9)
