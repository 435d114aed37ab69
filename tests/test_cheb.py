"""Chebyshev constants: interval/circle oracles, classes, the LP minimax."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeWarning

from pluripot import cheb, domains, vdm
from pluripot.basis import degree_block, enumerate_basis
from pluripot.domains import AdmissibleWeight
from pluripot.errors import InvalidInputError, PluripotError


def test_interval_monic_minimax():
    # min over monic degree-k polynomials of sup on [-1,1] is 2^{1-k}
    cand = domains.interval(-1.0, 1.0, 1024)
    for k in (1, 2, 3, 4):
        rec = cheb.chebyshev_constant(cand, (k,))
        assert rec.value == pytest.approx(2.0 ** (1 - k), rel=2e-3), k
    rec2 = cheb.chebyshev_constant(cand, (2,))
    assert abs(rec2.value - 0.5) < 1e-3


def test_circle_constants_exact():
    for r in (1.0, 0.5):
        cand = domains.circle(r, 128)
        for k in (1, 2, 3):
            rec = cheb.chebyshev_constant(cand, (k,))
            assert rec.value == pytest.approx(r**k, rel=1e-9)
            assert rec.tau == pytest.approx(r, rel=1e-6)


def _ellipse():
    theta = 2 * np.pi * np.arange(64) / 64
    return (np.cos(theta) + 0.5j * np.sin(theta))[:, None]


@pytest.fixture
def lp_calls(monkeypatch):
    """The row count of each LP solved."""
    calls = []
    solve = cheb.linprog

    def counted(*args, **kwargs):
        calls.append(len(kwargs["A_ub"]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(cheb, "linprog", counted)
    return calls


@pytest.mark.parametrize("r", [0.5, 0.8, 1.0, 1.2])
def test_circle_constants_converge_to_refine_tol(r, lp_calls):
    # circle(0.5, 201) capped at k = 5 and 7-10 with 16 fixed-phase facets.
    # Lawson certifies its iterate, and one facet per point at its residual
    # phase is tight at the first LP.
    cand = domains.circle(r, 201)
    for k in range(1, 11):
        rec = cheb.chebyshev_constant(cand, (k,))
        assert rec.converged, k
        assert rec.value == pytest.approx(r**k, rel=1e-9), k
    assert lp_calls == [201] * 10


@pytest.mark.parametrize("k", [1, 2])
def test_uncertified_lawson_seed_keeps_four_facets(lp_calls, k):
    # 30 Lawson steps do not close the ellipse's bracket.
    rec = cheb.chebyshev_constant(domains.custom(_ellipse()), (k,))
    assert rec.converged
    assert lp_calls[0] == cheb.INITIAL_FACETS * 64


def test_refinement_cap_is_reported(monkeypatch):
    # The ellipse at k = 1 needs about 20 LP rounds from its Lawson seed.
    monkeypatch.setattr(cheb, "_REFINE_ROUNDS", 1)
    rec = cheb.chebyshev_constant(domains.custom(_ellipse()), (1,))
    assert rec.converged is False


@pytest.mark.parametrize("k", [3, 4])
def test_zero_constant_converges(lp_calls, k):
    # z^3 = 1 on the cube roots of unity, so Y(k) = 0 for k >= 3.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = cheb.chebyshev_constant(domains.circle(1.0, 3), (k,))
    assert rec.converged
    assert rec.value == 0.0
    assert lp_calls == []


@pytest.mark.parametrize(
    "cand, degrees",
    [
        # Here the LP left about 5e-15, 3.1e-6 and up to 23.4.
        (domains.circle(1.0, 6), (6, 7, 8, 9)),
        (domains.circle(2.5, 10), (10, 11)),
        (domains.interval(0.0, 5.0, 11), (11, 12, 13, 14)),
        # Least squares leaves 5e-15 at k = 13: more than 4 ulps, within the
        # rounding error of the 14-term sum.
        (domains.circle(1.0, 12), (12, 13, 14, 15)),
    ],
    ids=["circle6", "circle10", "interval11", "circle12"],
)
def test_zero_constant_from_least_squares(lp_calls, cand, degrees):
    # A monic polynomial of degree >= m vanishes on m points; the
    # least-squares solve finds it to rounding and no LP runs.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in degrees:
            rec = cheb.chebyshev_constant(cand, (k,))
            assert rec.converged, k
            assert rec.value == 0.0, k
    assert lp_calls == []


def test_torus_constants_are_one():
    cand = domains.torus(2, 32)
    for alpha in enumerate_basis(3, 2)[1:]:
        rec = cheb.chebyshev_constant(cand, alpha)
        assert rec.converged, alpha
        assert rec.value == pytest.approx(1.0, rel=1e-9), alpha


@pytest.mark.parametrize(
    "cand, class_tag, n_max, exact, tau",
    [
        (domains.torus(2, 21), "plain", 5, lambda a: 1.0, 1.0),
        # Monomials are orthogonal on the product grid: Y(a) = 0.5^a_2, so
        # tau's geometric mean over each degree block is 1/sqrt(2).
        (
            domains.product([domains.circle(1.0, 32), domains.circle(0.5, 32)]),
            "plain", 4, lambda a: 0.5 ** a[1], 2**-0.5,
        ),
        # The outer ring of disk(1, 4, 8) has radius 7/8.
        (
            domains.product([domains.disk(1.0, 4, 8)] * 2),
            "homogeneous", 3, lambda a: (7 / 8) ** sum(a), 7 / 8,
        ),
    ],
    ids=["torus", "circle-product", "homogeneous-bidisk"],
)
def test_d2_constants_match_closed_forms(cand, class_tag, n_max, exact, tau):
    for n in range(1, n_max + 1):
        gm, records = cheb.tau_geometric_mean(cand, None, class_tag, n)
        for rec in records:
            assert rec.converged, rec.alpha
            assert rec.value == pytest.approx(exact(rec.alpha), rel=1e-9), rec.alpha
        assert gm == pytest.approx(tau, rel=1e-9), n


def _lawson_lower_bound(target, lower, steps=30):
    """Largest sqrt(sum w |r|^2) over Lawson's weighted least-squares steps."""
    w = np.full(len(target), 1.0 / len(target))
    best = 0.0
    for _ in range(steps):
        root = np.sqrt(w)
        c = np.linalg.lstsq(lower * root[:, None], -target * root, rcond=None)[0]
        r = np.abs(target + lower @ c)
        best = max(best, math.sqrt(w @ r**2))
        if (w * r).sum() == 0:
            break
        w = w * r / (w * r).sum()
    return best


@given(st.integers(0, 2**32 - 1), st.integers(5, 10), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_value_is_at_least_the_lawson_lower_bound(seed, m, k):
    rng = np.random.default_rng(seed)
    pts = (rng.normal(size=m) + 1j * rng.normal(size=m))[:, None]
    rec = cheb.chebyshev_constant(domains.custom(pts), (k,))
    target = vdm.monomial_values([(k,)], pts)[0]
    lower = vdm.monomial_values(cheb._class_monomials((k,), 1, "plain"), pts).T
    assert rec.converged
    assert rec.value >= _lawson_lower_bound(target, lower) * (1 - 1e-9)


@functools.cache
def _ellipse_constant(k):
    rec = cheb.chebyshev_constant(domains.custom(_ellipse()), (k,))
    assert rec.converged, k
    return rec.value


@given(
    st.floats(0.0, 2 * np.pi),
    st.floats(0.3, 3.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=2, deadline=None)
def test_constants_are_invariant_under_similarity(phi, rho, seed):
    # Y(k) of e^{i phi} K and of a permutation of K equals Y(k) of K, and
    # Y(k) of rho K is rho^k Y(k).  Unlike a circle, the ellipse moves under
    # a generic rotation.
    pts = _ellipse()
    moved = {
        "rotation": (np.exp(1j * phi) * pts, 1.0),
        "dilation": (rho * pts, rho),
        "permutation": (np.random.default_rng(seed).permutation(pts), 1.0),
    }
    for k in range(1, 5):
        for name, (image, factor) in moved.items():
            rec = cheb.chebyshev_constant(domains.custom(image), (k,))
            assert rec.converged, (name, k)
            expected = factor**k * _ellipse_constant(k)
            assert rec.value == pytest.approx(expected, rel=1e-9), (name, k)


def test_highs_accepts_the_lp_options():
    # SciPy warns, and carries on, on an unknown HiGHS option or a bad value.
    with warnings.catch_warnings():
        warnings.simplefilter("error", OptimizeWarning)
        rec = cheb.chebyshev_constant(domains.circle(1.0, 64), (3,))
        real = cheb.chebyshev_constant(domains.interval(-1.0, 1.0, 256), (3,))
    assert rec.converged and real.converged


def _constants(cand, alphas, class_tag="plain", weight=None):
    return lambda: [cheb.chebyshev_constant(cand, a, class_tag, weight) for a in alphas]


def _clustered(seed):
    """m = 5 to 10 complex Gaussian points of spread s around z0, as drawn in
    a sweep of clustered sets."""
    rng = np.random.default_rng(seed)
    m, s, z0 = int(rng.integers(5, 11)), rng.uniform(0.05, 1.0), complex(*rng.normal(size=2))
    return (z0 + s * (rng.normal(size=m) + 1j * rng.normal(size=m)))[:, None]


def _failing_constant(pts, alpha):
    def solve_all():
        with pytest.raises(PluripotError, match="minimax LP failed"):
            cheb.chebyshev_constant(domains.custom(pts), alpha)
    return solve_all


@pytest.mark.parametrize(
    "solve_all, failures",
    [
        (_constants(domains.circle(1.0, 201), [(k,) for k in range(1, 9)]), 0),
        (_constants(domains.interval(-1.0, 1.0, 841, "chebyshev"), [(k,) for k in range(1, 9)]), 0),
        # About 20 refinement rounds at k = 1.
        (_constants(domains.custom(_ellipse()), [(1,), (2,)]), 0),
        (_constants(domains.disk(1.0, 12, 40), [(1,), (2,), (3,)], "weighted",
                    AdmissibleWeight.quadratic()), 0),
        (_constants(domains.torus(2, 21), enumerate_basis(3, 2)[1:]), 0),
        # Devex ends with status Unknown on one LP; the default edge weights solve it.
        (_constants(domains.custom(_clustered(6)), [(4,)]), 1),
        # m = 9: an LP fails with both edge weights, and the constant raises.
        (_failing_constant(_clustered(354), (4,)), 2),
        # m = 5: HiGHS's run itself fails on the first LP with devex, then an
        # LP fails with both edge weights.
        (_failing_constant(_clustered(1312), (4,)), 3),
    ],
    ids=["circle201", "interval841", "ellipse64", "weighted-disk", "torus2", "clustered6",
         "clustered354", "clustered1312"],
)
def test_direct_highs_matches_scipy_linprog(monkeypatch, solve_all, failures):
    # Same model, same options: the same vertex, bit for bit.  Every LP is
    # solved on the reused HiGHS instance in the order the constants pose
    # them, so one that follows a failed LP starts as cold as scipy's.
    pytest.importorskip("scipy.optimize._highspy._core")
    from scipy.optimize import linprog

    lps = []
    solve = cheb.linprog

    def captured(c, **kwargs):
        lps.append((dict(c=c, **kwargs), solve(c, **kwargs)))
        return lps[-1][1]

    monkeypatch.setattr(cheb, "linprog", captured)
    solve_all()
    assert lps
    assert sum(direct.status != 0 for _, direct in lps) == failures
    for lp, direct in lps:
        reference = linprog(method="highs", **lp)
        assert direct.status == reference.status
        if direct.status == 0:
            assert direct.x.tobytes() == reference.x.tobytes()


def _one_lp(options):
    # min x subject to -x <= -1: x = 1.
    return cheb.linprog(np.ones(1), A_ub=-np.ones((1, 1)), b_ub=-np.ones(1),
                        bounds=np.array([(0.0, np.inf)]), options=options)


def test_linprog_falls_back_to_scipy_without_highs_bindings(monkeypatch):
    cand = domains.circle(0.9, 64)
    direct = cheb.chebyshev_constant(cand, (3,))
    monkeypatch.setattr(cheb, "_highs", lambda: None)
    assert _one_lp(cheb._HIGHS_OPTIONS).x.tolist() == [1.0]
    fallback = cheb.chebyshev_constant(cand, (3,))
    assert fallback.value == direct.value
    assert fallback.coefficients.tobytes() == direct.coefficients.tobytes()


def test_highs_is_none_when_pass_model_takes_no_arrays(monkeypatch):
    core = pytest.importorskip("scipy.optimize._highspy._core")

    class ListsOnly:
        def setOptionValue(self, key, value):
            pass

        def passModel(self, *args):
            raise TypeError("passModel(): incompatible function arguments")

    monkeypatch.setattr(core, "_Highs", ListsOnly)
    cheb._highs.cache_clear()
    try:
        assert cheb._highs() is None
    finally:
        cheb._highs.cache_clear()


@pytest.mark.parametrize("options, other",
                         [(cheb._HIGHS_OPTIONS, cheb._COMPLEX_OPTIONS),
                          (cheb._COMPLEX_OPTIONS, cheb._HIGHS_OPTIONS)],
                         ids=["real", "complex"])
def test_highs_holds_the_lp_options(options, other):
    # Read back from the reused instance that solved the LP, after an LP
    # with the other options.
    core = pytest.importorskip("scipy.optimize._highspy._core")
    if cheb._highs() is None:
        pytest.skip("this scipy's HiGHS bindings take no arrays")
    _one_lp(other)
    res = _one_lp(options)
    assert res.status == 0 and res.x.tolist() == [1.0]
    _, highs = cheb._highs()
    translated = {"presolve": "off", "simplex_dual_edge_weight_strategy": 1}
    for key, value in {**cheb._SCIPY_FIXED, **options}.items():
        assert highs.getOptionValue(key) == (core.HighsStatus.kOk,
                                             translated.get(key, value)), key


@pytest.mark.parametrize("field, value", [("c", np.ones(2)), ("b_ub", -np.ones(2)),
                                          ("bounds", np.array([(0.0, np.inf)] * 2))])
def test_highs_rejects_mismatched_lp_shapes(field, value):
    # HiGHS would read the arrays past their ends.
    if cheb._highs() is None:
        pytest.skip("this scipy's HiGHS bindings take no arrays")
    lp = dict(c=np.ones(1), A_ub=-np.ones((1, 1)), b_ub=-np.ones(1),
              bounds=np.array([(0.0, np.inf)]), options=cheb._HIGHS_OPTIONS)
    lp[field] = value
    with pytest.raises(InvalidInputError, match="do not match A_ub"):
        cheb.linprog(**lp)


@pytest.mark.parametrize(
    "options",
    [{"no_such_option": 1.0}, {"primal_feasibility_tolerance": 1e-20},
     {"simplex_dual_edge_weight_strategy": "no-such-strategy"}],
    ids=["name", "range", "strategy"],
)
def test_highs_rejects_bad_lp_options(options):
    pytest.importorskip("scipy.optimize._highspy._core")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PluripotError, match="HiGHS"):
            _one_lp(options)


@pytest.mark.parametrize(
    "cand, first, second",
    [
        (domains.circle(1.0, 64), cheb._COMPLEX_OPTIONS, cheb._HIGHS_OPTIONS),
        (domains.interval(-1.0, 1.0, 256), cheb._HIGHS_OPTIONS, cheb._COMPLEX_OPTIONS),
    ],
    ids=["complex", "real"],
)
@pytest.mark.parametrize("failures", [1, 2, 4])
def test_failed_lp_is_retried_with_the_other_edge_weights(
    monkeypatch, cand, first, second, failures
):
    # A real active-set LP that fails both ways is solved once more as the
    # full LP, with both facets at every point; it fails only if that does.
    expected = cheb.chebyshev_constant(cand, (3,))
    calls = []
    solve = cheb.linprog

    def flaky(c, **kwargs):
        calls.append((kwargs["options"], len(kwargs["A_ub"])))
        if len(calls) <= failures:
            return cheb.LPResult(4, "stub failure", None)
        return solve(c, **kwargs)

    monkeypatch.setattr(cheb, "linprog", flaky)
    real = first is cheb._HIGHS_OPTIONS
    if failures == 1:
        rec = cheb.chebyshev_constant(cand, (3,))
        assert rec.value == expected.value and rec.converged
    elif failures == 2 and real:
        rec = cheb.chebyshev_constant(cand, (3,))
        assert rec.value == pytest.approx(expected.value, rel=1e-9)
        assert rec.converged
        assert calls[2:] == [(first, 2 * len(cand))]
    else:
        with pytest.raises(PluripotError, match="minimax LP failed: stub failure"):
            cheb.chebyshev_constant(cand, (3,))
        assert len(calls) == (4 if real else 2)
    assert [options for options, _ in calls[:2]] == [first, second]


def test_lp_that_fails_with_devex_solves_on_retry():
    # A clustered set z0 + s g: HiGHS with devex ends with status Unknown on
    # one of its k = 4 LPs, and the default edge weights solve it.
    pts = _clustered(6)
    rec = cheb.chebyshev_constant(domains.custom(pts), (4,))
    target = vdm.monomial_values([(4,)], pts)[0]
    lower = vdm.monomial_values(cheb._class_monomials((4,), 1, "plain"), pts).T
    assert rec.converged
    assert rec.value >= _lawson_lower_bound(target, lower) * (1 - 1e-9)


def test_real_lp_on_1601_chebyshev_nodes():
    # The single LP over all 3,202 facets failed in HiGHS at k = 12.  The
    # grid minimax is at most 2^(1-k), the grid peak of T_k / 2^(k-1), and
    # equal to it when k divides 1600: the grid then holds T_k's extrema.
    cand = domains.interval(-1.0, 1.0, 1601, "chebyshev")
    for k in range(1, 13):
        rec = cheb.chebyshev_constant(cand, (k,))
        assert 0 < rec.value <= 2.0 ** (1 - k) * (1 + 1e-9), k
        if 1600 % k == 0:
            assert rec.converged, k
            assert rec.value == pytest.approx(2.0 ** (1 - k), rel=1e-9), k


def test_real_lp_falls_back_to_the_full_lp():
    # The first active-set LP at k = 14 (30 points, 60 rows) fails with both
    # edge weights; the full LP over all 802 facets solves.
    cand = domains.interval(-1.0, 1.0, 401)
    weight = AdmissibleWeight.quadratic()
    rec = cheb.chebyshev_constant(cand, (14,), "weighted", weight)
    scale = domains.finite_weight_power(weight(cand.points), 14)
    target = vdm.monomial_values([(14,)], cand.points)[0] * scale
    lower = vdm.monomial_values(cheb._class_monomials((14,), 1, "plain"), cand.points).T
    assert rec.value >= _lawson_lower_bound(target, lower * scale[:, None]) * (1 - 1e-9)


def _full_real_lp_peak(target, lower, scale):
    """Peak of the minimax polynomial of the LP with both facets at every point."""
    t, e = target * scale, lower * scale[:, None]
    norm, col = np.abs(t).max(), np.abs(e).max(axis=0)
    t, e = t / norm, e / col
    m, j = e.shape
    ones = np.ones((m, 1))
    res = cheb.linprog(np.r_[np.zeros(j), 1.0], A_ub=np.block([[e, -ones], [-e, -ones]]),
                       b_ub=np.r_[-t, t], bounds=np.array([(-np.inf, np.inf)] * j + [(0.0, np.inf)]),
                       options=cheb._HIGHS_OPTIONS)
    assert res.status == 0, res.message
    return np.abs(t + e @ res.x[:j]).max() * norm


@given(st.integers(0, 2**32 - 1), st.integers(8, 60), st.integers(1, 6), st.booleans())
@example(39, 39, 6, True)  # peaks 2.3e-10 of the data peak apart
@settings(max_examples=40, deadline=None)
def test_real_active_set_matches_the_full_lp(seed, m, k, weighted):
    pts = np.random.default_rng(seed).uniform(-2.0, 2.0, m)[:, None]
    target = vdm.monomial_values([(k,)], pts)[0]
    lower = vdm.monomial_values(cheb._class_monomials((k,), 1, "plain"), pts).T
    scale = domains.finite_weight_power(pts[:, 0] ** 2, k) if weighted else np.ones(m)
    value, _, _, bound = cheb._solve_minimax(target, lower, scale)
    full = _full_real_lp_peak(target, lower, scale)
    # HiGHS's tolerances are absolute on the unit-peak data both LPs see:
    # each LP's peak may exceed the minimax by its primal (row) and dual
    # (optimality) tolerances, in units of the data's peak.
    highs = cheb._HIGHS_OPTIONS
    tol = highs["primal_feasibility_tolerance"] + highs["dual_feasibility_tolerance"]
    assert abs(value - full) <= 1e-9 * full + tol * np.abs(target * scale).max()
    # The last LP's optimum bounds the peak below, up to rounding in the
    # evaluated peak.
    assert bound <= value * (1 + 1e-12)


# _solve_minimax before its split into a real and a complex solve, verbatim
# but for the module names, qualified by ``cheb.`` so that the ``lp_calls``
# fixture counts its LPs: the oracle the split solves match bit for bit.
def _reference_minimax(
    target: np.ndarray, lower: np.ndarray, scale: np.ndarray
) -> tuple[float, np.ndarray, bool, float]:
    """min over c of max_k scale_k |target_k + lower_k . c|.

    Returns (achieved max, c, converged, LP bound).  ``lower`` is (M, J).
    The achieved max is the true peak of the returned polynomial over all M
    points, and the bound is the last LP's optimum, a lower bound on the
    minimax up to HiGHS's tolerances; converged says that the peak is within
    ``_REFINE_TOL`` relative of it.  A complex problem refines its facets
    until it is, or stops at ``_REFINE_ROUNDS`` with converged false.  A
    real problem solves its LP on an active set of points, each with both
    facets, and stops when no point outside the set exceeds the bound: the
    set's optimum is then the full LP's, whether or not the peak meets the
    bound to ``_REFINE_TOL``.  An active-set LP that fails with both edge
    weights is solved again, in the next round, as the full LP on every point.
    """
    m, j = lower.shape
    keep = scale > 0
    t = target[keep] * scale[keep]
    e = lower[keep] * scale[keep, None]
    if j == 0:
        value = float(np.max(np.abs(t)))
        return value, np.zeros(0, dtype=complex), True, value
    # HiGHS's tolerances are absolute: the LP sees unit-peak target and columns.
    norm = unit = float(np.max(np.abs(t))) or 1.0
    col = np.abs(e).max(axis=0)
    col[col == 0] = 1.0
    t, e = t / norm, e / col

    def floor(c: np.ndarray) -> float:
        # Rounding error of a (J + 1)-term sum: a peak below it is a zero minimax.
        return (j + 1) * np.finfo(float).eps * np.max(np.abs(t) + np.abs(e) @ np.abs(c))
    real_case = not (t.imag.any() or e.imag.any())
    # Lawson's iteration; a real problem takes only its unweighted first step.
    w = np.full(len(t), 1.0 / len(t))
    for _ in range(1 if real_case else cheb._LAWSON_STEPS):
        root = np.sqrt(w)
        c = np.linalg.lstsq(e * root[:, None], -t * root, rcond=None)[0]
        vals = t + e @ c
        r = np.abs(vals)
        size = float(r.max())
        if size <= floor(c):
            return 0.0, c * norm / col, True, 0.0
        # c minimizes sum w|r|^2 with sum w = 1: its root bounds the minimax below.
        certified = size <= math.sqrt(w @ r**2) * (1 + cheb._REFINE_TOL)
        w = w * r
        if certified or w.sum() == 0:
            break
        w /= w.sum()

    rows_a: list[np.ndarray] = []
    rows_b: list[np.ndarray] = []
    if real_case:
        t, e = t.real, e.real
        # A real minimax is pinned by J + 1 reference points (Stiefel, Numer.
        # Math. 1960): the LP holds both facets, +-(t + e c) <= s, at an
        # active set of points, seeded with the largest least-squares
        # residuals and grown by the largest violators, this many at a time.
        batch = 2 * (j + 1)
        active = np.zeros(len(t), dtype=bool)
        fresh = cheb._largest(r, np.arange(len(t)), batch)
    else:
        # Certified phases are a dual certificate (sum w conj(r) e = 0): one
        # facet each, if M > 2J rows can pin the 2J + 1 unknowns at a vertex.
        base, count = np.angle(vals), 1 if certified and len(t) > 2 * j else cheb.INITIAL_FACETS
        # Lawson's peak is near the minimax: dividing it out puts the LP's
        # value near 1.  A zero minimax, up to rounding, is not divided out.
        if size > cheb._REFINE_TOL:
            t, e, unit = t / size, e / size, unit * size

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

    unknowns = j if real_case else 2 * j
    cost = np.zeros(unknowns + 1)
    cost[-1] = 1.0
    bounds = np.array([(-np.inf, np.inf)] * unknowns + [(0.0, np.inf)])
    # A failed LP is solved once more with the other dual edge weights.
    strategies = (
        (cheb._HIGHS_OPTIONS, cheb._COMPLEX_OPTIONS) if real_case
        else (cheb._COMPLEX_OPTIONS, cheb._HIGHS_OPTIONS)
    )
    converged = False
    for _ in range(cheb._REFINE_ROUNDS):
        if real_case:
            active[fresh] = True
            ones = np.ones((len(fresh), 1))
            rows_a.append(np.block([[e[fresh], -ones], [-e[fresh], -ones]]))
            rows_b.append(np.concatenate([-t[fresh], t[fresh]]))
        a_ub, b_ub = np.concatenate(rows_a), np.concatenate(rows_b)
        for options in strategies:
            res = cheb.linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, options=options)
            if res.status == 0:
                break
        else:
            if not real_case or active.all():
                raise PluripotError(f"minimax LP failed: {res.message}")
            fresh = np.nonzero(~active)[0]  # the full LP, in the next round
            continue
        x = res.x
        c_best = x[:j] if real_case else x[:j] + 1j * x[j : 2 * j]
        s_opt = x[-1]
        vals = t + e @ c_best
        r = np.abs(vals)
        peak = float(r.max())
        zero = floor(c_best)
        within = peak <= s_opt * (1 + cheb._REFINE_TOL) + zero
        cut = np.nonzero(r > s_opt * (1 + 1e-12))[0]
        if real_case:
            fresh = cheb._largest(r, cut[~active[cut]], batch)
            if not len(fresh):
                converged = within
                break
        elif within:
            converged = True
            break
        else:
            add_facets(np.angle(vals[cut]), cut)
    value = peak * unit if peak > zero else 0.0
    return value, c_best * norm / col, converged, s_opt * unit


def _minimax_data(cand, alpha, class_tag="plain", weight=None):
    """_solve_minimax's arguments in chebyshev_constant(cand, alpha, class_tag, weight)."""
    deg, d = sum(alpha), cand.dimension
    lower = vdm.monomial_values(cheb._class_monomials(alpha, d, class_tag), cand.points)
    rows = np.concatenate([lower, vdm.monomial_values([alpha], cand.points)])
    scale = np.ones(len(cand))
    if weight:
        rows, s = vdm.weighted_columns(rows, weight(cand.points), deg)
        scale = np.exp(s - s.max())
    return rows[-1], rows[:-1].T, scale


def _outcome(solve, data):
    try:
        return solve(*data)
    except PluripotError as err:
        return str(err)


@pytest.mark.parametrize(
    "cand, alphas, class_tag, weight",
    [
        (domains.circle(1.0, 201), [(k,) for k in range(1, 9)], "plain", None),
        # Uncertified Lawson seeds: 14-23 LP rounds per constant.
        (domains.custom(_ellipse()), [(k,) for k in range(1, 5)], "plain", None),
        (domains.interval(-1.0, 1.0, 841, "chebyshev"), [(k,) for k in range(1, 9)], "plain",
         None),
        # The first active-set LP fails with both edge weights; the full LP solves.
        (domains.interval(-1.0, 1.0, 401), [(14,)], "weighted", AdmissibleWeight.quadratic()),
        # The first of each degree block has no lower monomial to recombine.
        (domains.torus(2, 21), [a for n in (1, 2, 3) for a in degree_block(n, 2)],
         "homogeneous", None),
        # At k = 6 the active set stops with its peak above the bound: not converged.
        (domains.custom(np.random.default_rng(6).uniform(-2.0, 2.0, 40)), [(5,), (6,)], "plain",
         None),
        # Zero constants: from least squares, with no LP.
        (domains.circle(1.0, 3), [(3,), (4,)], "plain", None),
        # A retried LP at k = 4 of seed 6; seeds 354 and 1312 raise at k = 4.
        *[(domains.custom(_clustered(seed)), [(2,), (3,), (4,)], "plain", None)
          for seed in (0, 6, 354, 1312)],
    ],
    ids=["circle201", "ellipse64", "interval841", "interval401w", "torus2-homogeneous",
         "random40", "zero", "clustered0", "clustered6", "clustered354", "clustered1312"],
)
def test_minimax_solves_match_their_reference(lp_calls, cand, alphas, class_tag, weight):
    for alpha in alphas:
        data = _minimax_data(cand, alpha, class_tag, weight)
        got = _outcome(cheb._solve_minimax, data)
        rows = lp_calls[:]
        lp_calls.clear()
        want = _outcome(_reference_minimax, data)
        assert lp_calls == rows, alpha
        lp_calls.clear()
        if isinstance(want, str):
            assert got == want, alpha
            continue
        assert (got[0], got[2], got[3]) == (want[0], want[2], want[3]), alpha
        assert np.array_equal(got[1], want[1]), alpha


def test_homogeneous_class_d2_torus():
    cand = domains.torus(2, 12)
    rec = cheb.chebyshev_constant(cand, (1, 1), class_tag="homogeneous")
    assert rec.value == pytest.approx(1.0, rel=1e-9)
    assert rec.tau == pytest.approx(1.0, rel=1e-9)


def test_weighted_class_scales_by_weight():
    # on the circle with Q = |z|^2 = 1, weighted Y(alpha) = e^{-deg} * plain
    cand = domains.circle(1.0, 64)
    w = AdmissibleWeight.quadratic()
    for k in range(1, 5):
        plain = cheb.chebyshev_constant(cand, (k,))
        weighted = cheb.chebyshev_constant(cand, (k,), "weighted", w)
        assert plain.converged and weighted.converged, k
        assert weighted.value == pytest.approx(
            math.exp(-k) * plain.value, rel=1e-9
        )
        assert weighted.value == pytest.approx(math.exp(-k), rel=1e-9)


def test_coefficients_witness_the_value():
    cand = domains.interval(-1.0, 1.0, 256)
    rec = cheb.chebyshev_constant(cand, (3,))
    from pluripot.vdm import monomial_values

    lower = cheb._class_monomials((3,), 1, "plain")
    target = monomial_values([(3,)], cand.points)[0]
    low = monomial_values(lower, cand.points).T
    vals = np.abs(target + low @ rec.coefficients)
    assert float(vals.max()) == pytest.approx(rec.value, rel=1e-12)


def test_submultiplicativity_audit_clean():
    cand = domains.interval(-1.0, 1.0, 256)
    records = [cheb.chebyshev_constant(cand, (k,)) for k in range(1, 7)]
    assert cheb.submultiplicativity_audit(records) == []


def test_submultiplicativity_audit_flags_planted_violation():
    cand = domains.circle(1.0, 32)
    a = cheb.chebyshev_constant(cand, (1,))
    b = cheb.chebyshev_constant(cand, (2,))
    # plant an impossible (too large) value at alpha = (3,)
    bad = cheb.ChebyshevRecord(
        (3,), "plain", 10.0, 10.0 ** (1 / 3), np.zeros(0), converged=True
    )
    out = cheb.submultiplicativity_audit([a, b, bad])
    assert len(out) == 1 and out[0]["alpha"] == [1]


def test_tau_geometric_mean_circle():
    cand = domains.circle(0.7, 64)
    gm, records = cheb.tau_geometric_mean(cand, None, "plain", 3)
    assert gm == pytest.approx(0.7, rel=1e-6)
    assert len(records) == 1  # h_3 = 1 in d = 1


def test_invalid_inputs():
    cand = domains.circle(1.0, 16)
    with pytest.raises(InvalidInputError):
        cheb.chebyshev_constant(cand, (1, 1))  # dimension mismatch
    with pytest.raises(InvalidInputError):
        cheb.chebyshev_constant(cand, (0,))  # empty class
    with pytest.raises(InvalidInputError):
        cheb.chebyshev_constant(cand, (1,), class_tag="monic")
    with pytest.raises(InvalidInputError):
        cheb.chebyshev_constant(cand, (1,), class_tag="weighted")  # no weight
