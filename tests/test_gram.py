"""Gram systems, Bergman functions, trace identity, free energy."""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
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
    cols = _basis_columns(pts, weight(pts), n)
    if part == "real":
        cols = np.ascontiguousarray(cols.real)
    expected = scipy.linalg.solve_triangular(sys.chol, cols, lower=True)
    assert np.array_equal(_whitened_columns(sys, cols), expected)
    for bad in (np.inf, np.nan):
        broken = cols.copy()
        broken[1, 2] = bad
        with pytest.raises(InvalidInputError, match="not finite"):
            _whitened_columns(sys, broken)


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


@pytest.mark.parametrize(
    "solve",
    [
        lambda cand, w: solve_optimal_measure(cand, w, 2),
        lambda cand, w: gram_matrix(DiscreteMeasure.uniform(cand), w, 2),
        lambda cand, w: search_fekete(cand, 2, w),
        lambda cand, w: chebyshev_constant(cand, (2,), "weighted", w),
    ],
    ids=["optmeas", "gram", "fekete", "cheb"],
)
def test_an_overflowing_w_n_is_refused_by_name(solve):
    # Q = -400 at x = 1 overflows w^2 = exp(800).  Unchecked, the scaled
    # columns met a pivot check (a degenerate measure of rank 0), the
    # pivoted QR's finiteness check, or LAPACK's least squares.
    x = np.linspace(-1.0, 1.0, 11)
    w = AdmissibleWeight.custom(lambda p: np.where(p[:, 0].real > 0.9, -400.0, 0.0))
    cand = domains.custom(x.astype(complex)[:, None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"w\^2 = exp\(-2 Q\) overflows at Q = -400.0"):
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
            assert (both[0].log_det, both[0].shift) == (sys.log_det, sys.shift)
            assert np.array_equal(both[1], b)
            rep = solve_optimal_measure(cand, w, n)
            assert rep.converged
            assert rep.log_det == pytest.approx(sys.log_det, rel=1e-12)


def test_bergman_refuses_a_point_past_the_gram_scale_by_name():
    # The Gram of the unit circle, Q = 300 there, is scaled by exp(2 * 300);
    # at z = 2, Q = -100, B's column would carry exp(2 * 400), not a float.
    w = AdmissibleWeight.custom(lambda p: np.where(np.abs(p[:, 0]) < 1.5, 300.0, -100.0))
    sys = gram_matrix(DiscreteMeasure.uniform(domains.circle(1.0, 16)), w, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            InvalidInputError, match=r"w\^2 = exp\(-2 Q\) overflows at Q = -100.0 relative to Q = 300.0"
        ):
            bergman_function(sys, np.array([[2.0 + 0j]]))
        # Where some w^n also overflows, the Gram itself is refused as before.
        both = AdmissibleWeight.custom(lambda p: np.where(p[:, 0].real > 0.5, -400.0, 400.0))
        with pytest.raises(InvalidInputError, match=r"w\^2 = exp\(-2 Q\) overflows at Q = -400.0$"):
            gram_matrix(DiscreteMeasure.uniform(domains.interval(-1.0, 1.0, 3)), both, 2)
