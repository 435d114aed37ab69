"""Gram systems, Bergman functions, trace identity, free energy."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pluripot import domains, vdm
from pluripot.basis import enumerate_basis
from pluripot.cheb import chebyshev_constant
from pluripot.domains import AdmissibleWeight
from pluripot.errors import DegenerateMeasureError, InvalidInputError
from pluripot.fekete import search_fekete
from pluripot.gram import (
    MIN_PIVOT,
    DiscreteMeasure,
    _basis_columns,
    _whitened_columns,
    bergman_function,
    free_energy,
    gram_and_bergman,
    gram_matrix,
    gram_sequence,
    normalized_log_det,
)
from pluripot.optmeas import solve_optimal_measure

ZERO = AdmissibleWeight.zero()


def _random_instance(seed, n=None):
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(1, 5))
    m = int(rng.integers(n + 3, n + 12))
    pts = rng.normal(size=m) + 1j * rng.normal(size=m)
    cand = domains.custom(pts[:, None])
    masses = rng.random(m) + 0.05
    mu = DiscreteMeasure(cand, masses / masses.sum())
    weight = (
        AdmissibleWeight.zero() if rng.random() < 0.5
        else AdmissibleWeight.quadratic()
    )
    return mu, weight, n


def test_circle_haar_gram_is_identity():
    c = domains.circle(1.0, 64)
    mu = DiscreteMeasure.from_reference(c)
    sys = gram_matrix(mu, AdmissibleWeight.zero(), 5)
    assert np.allclose(sys.matrix, np.eye(6), atol=1e-13)
    assert abs(sys.log_det) < 1e-12


def test_gram_brute_force_small():
    pts = np.array([0.0, 1.0, -1.0 + 0.5j])
    cand = domains.custom(pts[:, None])
    masses = np.array([0.2, 0.3, 0.5])
    mu = DiscreteMeasure(cand, masses)
    w = AdmissibleWeight.quadratic()
    n = 1
    sys = gram_matrix(mu, w, n)
    e = vdm.monomial_values(enumerate_basis(n, 1), pts[:, None])
    scale = masses * np.exp(-2.0 * n * np.abs(pts) ** 2)
    expected = (e * scale) @ e.conj().T
    assert np.allclose(sys.matrix, expected, atol=1e-14)
    assert math.isclose(
        sys.log_det, math.log(abs(np.linalg.det(expected))), rel_tol=1e-12
    )


def test_trace_identity_random_instances():
    for seed in range(20):
        mu, weight, n = _random_instance(seed)
        sys = gram_matrix(mu, weight, n)
        b = bergman_function(sys, mu.candidates.points)
        total = float(np.sum(mu.masses * b))
        assert math.isclose(total, sys.size, rel_tol=1e-9)


def test_bergman_constant_on_circle():
    # Haar measure on the circle: B = N everywhere, so M_n = sqrt(N).  One
    # basis evaluation gives gram_matrix's Gram and bergman_function's B.
    c = domains.circle(1.0, 64)
    mu = DiscreteMeasure.from_reference(c)
    sys, b = gram_and_bergman(mu, AdmissibleWeight.zero(), 4)
    assert math.sqrt(b.max()) == pytest.approx(math.sqrt(5.0), rel=1e-12)
    assert np.array_equal(sys.matrix, gram_matrix(mu, AdmissibleWeight.zero(), 4).matrix)
    assert np.array_equal(b, bergman_function(sys, c.points))


def test_bergman_matches_the_radial_closed_form():
    # The grid's 48 angles make the Gram of z^0, ..., z^n diagonal for
    # n < 48, with c_k = sum_j mu_j |z_j|^2k w(z_j)^2n, so
    # B_n(z) = sum_k |z|^2k w(z)^2n / c_k.
    cand = domains.disk(1.0, 60, 48)
    mu = DiscreteMeasure.from_reference(cand)
    r2 = np.abs(cand.points[:, 0]) ** 2
    for n in range(1, 25):
        powers = r2[None, :] ** np.arange(n + 1)[:, None] * np.exp(-2 * n * r2)
        c = powers @ mu.masses
        want = (powers / c[:, None]).sum(axis=0)
        _, b = gram_and_bergman(mu, AdmissibleWeight.quadratic(), n)
        np.testing.assert_allclose(b, want, rtol=1e-12, atol=0.0, err_msg=f"n = {n}")


def _brute_force_log_z(pts, masses, weight, n):
    """Sum over all N-tuples of |VDM_w|^2 with product masses."""
    q = weight(pts[:, None])
    n_dim = n + 1
    total = 0.0
    for combo in itertools.product(range(len(pts)), repeat=n_dim):
        z = pts[list(combo)]
        if len(set(combo)) < n_dim:
            continue  # coincident points: VDM = 0
        v = np.vander(z, n_dim, increasing=True)
        w2 = math.exp(-2.0 * n * float(q[list(combo)].sum()))
        total += float(np.prod(masses[list(combo)])) * abs(
            np.linalg.det(v)
        ) ** 2 * w2
    return math.log(total)


def test_free_energy_matches_tuple_sum():
    rng = np.random.default_rng(11)
    for n in (1, 2):
        for trial in range(3):
            m = int(rng.integers(n + 2, 9))
            pts = rng.normal(size=m) + 1j * rng.normal(size=m)
            masses = rng.random(m) + 0.1
            masses = masses / masses.sum()
            cand = domains.custom(pts[:, None])
            mu = DiscreteMeasure(cand, masses)
            for weight in (AdmissibleWeight.zero(), AdmissibleWeight.quadratic()):
                log_z = free_energy(mu, weight, n)
                oracle = _brute_force_log_z(pts, masses, weight, n)
                assert math.isclose(log_z, oracle, rel_tol=1e-9)


def test_degenerate_measure_reports_rank():
    # two support points cannot carry a degree-2 (3-dim) Gram
    pts = np.array([0.0, 1.0, 2.0])
    cand = domains.custom(pts[:, None])
    mu = DiscreteMeasure(cand, np.array([0.5, 0.5, 0.0]))
    with pytest.raises(DegenerateMeasureError) as exc:
        gram_matrix(mu, AdmissibleWeight.zero(), 2)
    assert exc.value.rank == 2


def _trace_error(cand, n):
    mu = DiscreteMeasure.from_reference(cand)
    sys = gram_matrix(mu, AdmissibleWeight.zero(), n)
    trace = float(np.sum(mu.masses * bergman_function(sys, cand.points)))
    return abs(trace - sys.size) / sys.size


@pytest.mark.parametrize(
    "cand, n, tol",
    [
        (domains.circle(10.0, 400), 31, 1e-12),
        (domains.torus(2, 41), 16, 1e-12),
        (domains.product([domains.interval(-1.0, 1.0, 41)] * 2), 14, 3e-8),
    ],
    ids=["circle-31", "torus-16", "square-14"],
)
def test_well_conditioned_grams_accepted_at_any_degree(cand, n, tol):
    # Orthogonal monomials (circle, torus) score pivots of exactly 1; the
    # square at n = 14 scores 9.6e-8, above the bound.
    assert _trace_error(cand, n) <= tol


def test_ill_conditioned_gram_refused():
    # Monomials on [-1, 1] at n = 20: smallest pivot 5.7e-11, and the trace
    # identity would be off by 1.9e-4.
    cand = domains.interval(-1.0, 1.0, 401)
    mu = DiscreteMeasure.from_reference(cand)
    with pytest.raises(DegenerateMeasureError, match="degree 20") as exc:
        gram_matrix(mu, AdmissibleWeight.zero(), 20)
    assert 0 < exc.value.rank < 21
    assert _trace_error(cand, 14) <= 1e-8  # smallest pivot 1.7e-7


def test_normalized_log_det_circle():
    # Haar on circle(r): G = diag(r^{2k}), normalized log-det -> log r + log r / n terms
    r = 0.5
    c = domains.circle(r, 64)
    mu = DiscreteMeasure.from_reference(c)
    n = 4
    sys = gram_matrix(mu, AdmissibleWeight.zero(), n)
    # log det G = 2 log r * (0+1+...+n) = 2 log r * l_n; normalized = log r * (n+... )
    expected = (2.0 / (2 * n * (n + 1))) * (2 * math.log(r) * (n * (n + 1) // 2))
    assert normalized_log_det(sys) == pytest.approx(expected, rel=1e-12)


def test_measure_validation():
    c = domains.circle(1.0, 4)
    with pytest.raises(InvalidInputError):
        DiscreteMeasure(c, np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(InvalidInputError):
        DiscreteMeasure(c, np.array([0.5, 0.6, 0.0, 0.0]))
    with pytest.raises(InvalidInputError):
        DiscreteMeasure(c, np.array([0.5, 0.5, np.nan, 0.0]))
    with pytest.raises(InvalidInputError):
        DiscreteMeasure(c, np.full(3, 1.0 / 3))


@given(st.integers(0, 500))
@example(306)  # smallest pivot 4.9e-11: refused
@example(476)  # smallest pivot 1.1e-8: refused
@settings(max_examples=25, deadline=None)
def test_bergman_nonnegative_and_trace(seed):
    mu, weight, n = _random_instance(seed)
    try:
        sys = gram_matrix(mu, weight, n)
    except DegenerateMeasureError:
        # Refused only if the unit-diagonal Gram is that ill-conditioned:
        # every pivot share is at least its smallest eigenvalue.
        indices = enumerate_basis(n, 1)
        cols = vdm.monomial_values(indices, mu.candidates.points) * np.exp(
            -n * weight(mu.candidates.points)
        )
        g = (cols * mu.masses) @ cols.conj().T
        scale = 1.0 / np.sqrt(np.diag(g).real)
        assert np.linalg.cond(g * np.outer(scale, scale)) > 0.5 / MIN_PIVOT
        return
    b = bergman_function(sys, mu.candidates.points)
    assert np.all(b >= 0)
    assert math.isclose(float(np.sum(mu.masses * b)), sys.size, rel_tol=1e-8)



@pytest.mark.parametrize("part", ["complex", "real"])
def test_whitened_columns_match_solve_triangular(part):
    mu, weight, n = _random_instance(3, n=3)
    sys = gram_matrix(mu, weight, n)
    pts = mu.candidates.points
    cols, _ = _basis_columns(pts, weight(pts), n)
    if part == "real":
        cols = np.ascontiguousarray(cols.real)
    expected = scipy.linalg.solve_triangular(sys.chol, cols, lower=True)
    assert np.array_equal(_whitened_columns(sys, cols), expected)


def test_bergman_function_refuses_basis_values_that_overflow():
    # z^3 = 1e360 is not a float.
    sys = gram_matrix(DiscreteMeasure.uniform(domains.circle(1.0, 16)), AdmissibleWeight.zero(), 3)
    with np.errstate(over="ignore"):
        with pytest.raises(InvalidInputError, match="basis values .* not finite"):
            bergman_function(sys, np.array([[1e120 + 0j]]))


@pytest.mark.parametrize(
    "cand, weight, n_max",
    [
        (domains.circle(1.0, 201), ZERO, 20),
        (domains.torus(2, 41), ZERO, 12),
        (domains.product([domains.interval(-1.0, 1.0, 11)] * 2), ZERO, 10),
        (domains.disk(1.0, 12, 40), AdmissibleWeight.quadratic(), 8),
    ],
    ids=["circle", "torus", "square", "disk-quadratic"],
)
def test_gram_sequence_matches_each_degree(cand, weight, n_max):
    # Unweighted, every degree is read off the n_max factor; the weighted
    # disk takes the per-degree path.  Two factorizations of one Gram agree
    # to about eps / (smallest pivot share): on the square that exceeds
    # 1e-12 at n = 8 and 9 (3.2e-12 and 3.2e-11), where B moves by up to
    # 1.3e-12 and 5.3e-12 relative.
    mu = DiscreteMeasure.from_reference(cand)
    seq = gram_sequence(mu, weight, n_max)
    assert [sys.degree for sys, _ in seq] == list(range(1, n_max + 1))
    for n, (sys, b) in enumerate(seq, 1):
        single, b_single = gram_and_bergman(mu, weight, n)
        tol = max(1e-12, np.finfo(float).eps / single.smallest_share)
        assert sys.size == single.size
        assert abs(sys.log_det - single.log_det) <= tol * max(1.0, abs(single.log_det))
        np.testing.assert_allclose(b, b_single, rtol=tol, atol=0.0)


def test_gram_sequence_raises_at_the_first_refused_degree():
    # The 401-node interval's monomial Grams pass the pivot check up to
    # n = 14; the sequence to 16 stops at 15 with gram_matrix's own error.
    mu = DiscreteMeasure.from_reference(domains.interval(-1.0, 1.0, 401))
    with pytest.raises(DegenerateMeasureError) as single:
        gram_matrix(mu, ZERO, 15)
    with pytest.raises(DegenerateMeasureError) as seq:
        gram_sequence(mu, ZERO, 16)
    assert "degree 15" in str(seq.value)
    assert str(seq.value) == str(single.value)
    assert seq.value.rank == single.value.rank


_ELEVEN = np.linspace(-1.0, 1.0, 11)


def _q_minus_400_at_one(p):
    return np.where(p[:, 0].real > 0.9, -400.0, 0.0)


def _q_x2_minus_400(p):
    return p[:, 0].real ** 2 - 400.0


def _q_valley(p):
    x = np.abs(p[:, 0].real)
    return np.where(x > 0.99, 0.0, 180.0 + 20.0 * (1.0 - x))


def _log_w(idx, q, n=2):
    """log |W| of 11 points of [-1, 1] from their pairwise distances."""
    i, j = np.triu_indices(len(idx), 1)
    x = _ELEVEN[list(idx)]
    return float(np.log(np.abs(x[i] - x[j])).sum() - n * q[list(idx)].sum())


def _cauchy_binet_log_det(q, masses, n=2):
    """log det G = log sum_S prod mu(S) |W(S)|^2 over the 3-subsets S of mass > 0."""
    terms = [2 * _log_w(c, q, n) + np.log(masses[list(c)]).sum()
             for c in itertools.combinations(range(11), 3) if masses[list(c)].all()]
    return float(scipy.special.logsumexp(terms))


@pytest.mark.parametrize(
    "solve",
    [lambda cand, w: chebyshev_constant(cand, (2,), "weighted", w)],
    ids=["cheb"],
)
def test_an_overflowing_w_n_is_refused_by_name(solve):
    # Q = -400 at x = 1: w^2 = exp(800) there.  The minimax pins p(1) = 0
    # and rests on the other points, whose w^2 lies e^-800 below, past a
    # float.  With Q = x^2 - 400 the value itself exceeds e^790.
    cand = domains.custom(_ELEVEN.astype(complex)[:, None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"w\^2 = exp\(-2 Q\) spans more than a float"):
            solve(cand, AdmissibleWeight.custom(_q_minus_400_at_one))
        message = r"weighted Chebyshev value, of scale e\^800, overflows"
        with pytest.raises(InvalidInputError, match=message):
            solve(cand, AdmissibleWeight.custom(_q_x2_minus_400))


@pytest.mark.parametrize("part", ["fekete", "gram", "optmeas"])
def test_an_overflowing_w_n_is_computed(part):
    # w^2 = exp(800) overflows a float at x = 1 (Q = -400 there) or at
    # every point (Q = x^2 - 400); the log scales of the weighted columns
    # carry it.  Each value is checked against a log-domain brute force
    # over the C(11, 3) subsets.
    cand = domains.custom(_ELEVEN.astype(complex)[:, None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for field in (_q_minus_400_at_one, _q_x2_minus_400):
            w, q = AdmissibleWeight.custom(field), field(cand.points)
            if part == "fekete":
                want = max(_log_w(c, q) for c in itertools.combinations(range(11), 3))
                assert search_fekete(cand, 2, w).log_weighted_vdm == pytest.approx(want, rel=1e-14)
            elif field is _q_minus_400_at_one:
                # The other columns lie e^-800 below the largest, so a Gram
                # of the relative columns holds one point: degenerate in floats.
                message = "numerical rank 1 < 3; the weighted columns of 10 support points lie more"
                with pytest.raises(DegenerateMeasureError, match=message):
                    if part == "gram":
                        gram_matrix(DiscreteMeasure.uniform(cand), w, 2)
                    else:
                        solve_optimal_measure(cand, w, 2)
            elif part == "gram":
                mu = DiscreteMeasure.uniform(cand)
                want = _cauchy_binet_log_det(q, mu.masses)
                assert gram_matrix(mu, w, 2).log_det == pytest.approx(want, rel=1e-14)
            else:
                rep = solve_optimal_measure(cand, w, 2)
                assert rep.converged
                masses = rep.measure.masses
                assert rep.log_det == pytest.approx(_cauchy_binet_log_det(q, masses), rel=1e-14)
                # Q and Q + 400 have one optimal measure, and log det G moves by 2 N n 400.
                ref = solve_optimal_measure(cand, AdmissibleWeight.quadratic(), 2)
                np.testing.assert_allclose(masses, ref.measure.masses, rtol=0, atol=1e-12)
                assert rep.log_det == pytest.approx(ref.log_det + 4800.0, rel=1e-14)


@pytest.mark.parametrize(
    "solve",
    [
        lambda cand, w: chebyshev_constant(cand, (2,), "weighted", w),
        lambda cand, w: search_fekete(cand, 2, w),
        lambda cand, w: solve_optimal_measure(cand, w, 2),
    ],
    ids=["cheb", "fekete", "optmeas"],
)
def test_a_weight_vanishing_everywhere_is_refused_by_name(solve):
    # Q = +inf at every point: no weighted column is left to work on.
    cand = domains.custom(_ELEVEN.astype(complex)[:, None])
    w = AdmissibleWeight.custom(lambda p: np.full(len(p), np.inf))
    with pytest.raises(InvalidInputError, match="weight vanishes on"):
        solve(cand, w)


def test_search_keeps_exact_ratios_where_w_n_spans_less_than_a_float():
    # Q = 0 at -1 and 1 and 180 + 20(1 - |x|) inside: w^2 spans e^400, a
    # float's range, so no weight is floored and the exchange search reaches
    # the brute-force max, log 0.72 - 368 at {-1, 0.8, 1} or {-1, -0.8, 1}.
    # Floored relative weights would pick x = 0 for log 2 - 400.
    cand = domains.custom(_ELEVEN.astype(complex)[:, None])
    w = AdmissibleWeight.custom(_q_valley)
    q = w(cand.points)
    values = {c: _log_w(c, q) for c in itertools.combinations(range(11), 3)}
    best = max(values.values())
    assert best == pytest.approx(math.log(0.72) - 368.0, rel=1e-14)
    cfg = search_fekete(cand, 2, w)
    assert cfg.log_weighted_vdm == pytest.approx(best, rel=1e-14)
    assert values[tuple(sorted(cfg.indices))] == pytest.approx(best, rel=1e-14)


@pytest.mark.parametrize("q_bad", [-1e308, -np.inf], ids=["past-a-float", "minus-inf"])
@pytest.mark.parametrize(
    "solve",
    [
        lambda cand, w: vdm.weighted_columns(np.ones((3, len(cand))), w(cand.points), 2),
        lambda cand, w: search_fekete(cand, 2, w),
        lambda cand, w: gram_matrix(DiscreteMeasure.uniform(cand), w, 2),
        lambda cand, w: solve_optimal_measure(cand, w, 2),
        lambda cand, w: chebyshev_constant(cand, (2,), "weighted", w),
    ],
    ids=["columns", "fekete", "gram", "optmeas", "cheb"],
)
def test_a_log_scale_past_a_float_is_refused_by_name(solve, q_bad):
    # -2Q is +inf at x = 1: no log scale, relative or not, holds it.
    cand = domains.custom(_ELEVEN.astype(complex)[:, None])
    w = AdmissibleWeight.custom(lambda p: np.where(p[:, 0].real > 0.9, q_bad, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = r"w\^2 = exp\(-2 Q\) overflows its log scale at Q = " + re.escape(repr(q_bad))
        with pytest.raises(InvalidInputError, match=message):
            solve(cand, w)


def test_gram_where_w_2n_underflows():
    # Q = 300: w^2 = e^-600 is a float, but every Gram entry at n = 2 carries
    # w^4 = e^-1200, which is 0, so the Gram was once refused as rank 0.  Its
    # columns are now taken relative to min Q, and log det G adds that back.
    cand = domains.circle(1.0, 16)
    mu = DiscreteMeasure.uniform(cand)
    w = AdmissibleWeight.custom(lambda p: np.full(len(p), 300.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (2, 3):
            sys = gram_matrix(mu, w, n)
            assert sys.log_det == pytest.approx(-2 * sys.size * n * 300.0, rel=1e-12)
            b = bergman_function(sys, cand.points)
            assert np.array_equal(b, bergman_function(gram_matrix(mu, ZERO, n), cand.points))
            assert b == pytest.approx(np.full(16, n + 1.0), rel=1e-12)
            both = gram_and_bergman(mu, w, n)
            assert (both[0].log_det, both[0].log_scale) == (sys.log_det, sys.log_scale)
            assert np.array_equal(both[1], b)
            rep = solve_optimal_measure(cand, w, n)
            assert rep.converged
            assert rep.log_det == pytest.approx(sys.log_det, rel=1e-12)


def test_bergman_refuses_a_point_past_the_gram_scale_by_name():
    # The Gram of the unit circle, Q = 300 there, is divided by exp(-2 * 300);
    # at z = 2, Q = -100, B carries exp(2 * 400) relative to it, past a float.
    w = AdmissibleWeight.custom(lambda p: np.where(np.abs(p[:, 0]) < 1.5, 300.0, -100.0))
    sys = gram_matrix(DiscreteMeasure.uniform(domains.circle(1.0, 16)), w, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = r"B overflows at the evaluation points, whose w\^2 reaches e\^80[0-9.]+ times"
        with pytest.raises(InvalidInputError, match=message):
            bergman_function(sys, np.array([[2.0 + 0j]]))
        # Where the columns' scales span e^1600, the relative Gram holds
        # one point: degenerate in floats.
        both = AdmissibleWeight.custom(lambda p: np.where(p[:, 0].real > 0.5, -400.0, 400.0))
        message = "numerical rank 1 < 3; the weighted columns of 2 support points lie more"
        with pytest.raises(DegenerateMeasureError, match=message):
            gram_matrix(DiscreteMeasure.uniform(domains.interval(-1.0, 1.0, 3)), both, 2)
