"""The homogeneous-lift check: the lift, its identity, and the exhaustive max."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from pluripot import domains, fekete, gram, vdm
from pluripot import lift as lifting
from pluripot.basis import degree_block, dimension_counts, enumerate_basis
from pluripot.domains import AdmissibleWeight
from pluripot.errors import InvalidInputError


def test_lift_geometry():
    cand = domains.circle(1.0, 6)
    w = AdmissibleWeight.quadratic()
    lifted = lifting.homogeneous_lift(cand, w, 3)
    assert lifted.shape == (18, 2)  # no base point dropped
    t = lifted[:, 0]
    assert np.allclose(np.abs(t), math.exp(-1.0))  # |t| = w on the unit circle
    # second coordinate is t * lambda
    lam = lifted[:, 1] / t
    assert np.allclose(np.abs(lam), 1.0)


def test_lift_drops_zero_weight_points():
    pts = np.array([0.0, 1.0, 2.0]).astype(complex)[:, None]
    cand = domains.custom(pts)
    w = AdmissibleWeight.custom(
        lambda p: np.where(p[:, 0].real > 1.5, np.inf, 0.0)
    )
    lifted = lifting.homogeneous_lift(cand, w, 2)
    assert len(lifted) == 4  # 2 phases over the 2 points of finite Q


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_lift_identity_on_one_configuration(seed, n, d):
    # Lifting (t, t lambda) maps the P_n basis in d variables onto the
    # degree-n block in d + 1, monomial by monomial: z^(n-|a|, a) =
    # t^n lambda^a.  So the homogeneous VDM of the lift is |W(S)|.
    rng = np.random.default_rng(seed)
    m_n = dimension_counts(n, d)[0]
    base = rng.normal(size=(m_n, d)) + 1j * rng.normal(size=(m_n, d))
    w = AdmissibleWeight.quadratic()
    m_t = 8
    lift = lifting.homogeneous_lift(domains.custom(base), w, m_t)
    one_phase = np.arange(m_n) * m_t + rng.integers(m_t, size=m_n)
    homogeneous = vdm.log_abs_homogeneous_vdm(lift[one_phase], n)
    weighted = vdm.log_abs_weighted_vdm(base, n, w)
    assert homogeneous.log_abs == pytest.approx(weighted.log_abs, rel=1e-10)


def test_lift_identity_exhaustive():
    cand = domains.circle(1.0, 10)
    w = AdmissibleWeight.quadratic()
    out = lifting.lift_identity_check(cand, w, 3, m_t=2)
    for rec in out:
        assert rec["lhs_method"] == "exhaustive"
        assert rec["relative_gap"] <= 1e-9, rec


def test_lift_identity_unweighted_interval():
    cand = domains.interval(-1.0, 1.0, 8)
    out = lifting.lift_identity_check(cand, AdmissibleWeight.zero(), 2, m_t=2)
    for rec in out:
        assert rec["relative_gap"] <= 1e-9, rec


def test_lift_refuses_an_overflowing_w_by_name():
    # Q = -800 at z = 1: w = exp(800) is not a float, so neither is that
    # point's lift.
    w = AdmissibleWeight.custom(lambda p: np.where(np.isclose(p[:, 0], 1.0), -800.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"w\^1 = exp\(-1 Q\) overflows at Q = -800.0"):
            lifting.lift_identity_check(domains.circle(1.0, 10), w, 2)


def test_lift_refuses_an_overflowing_w_n_by_name():
    # Q = -400 at z = 1: w = e^400 is a float, but the degree-2 lifted
    # columns carry t^2, of modulus e^800.
    w = AdmissibleWeight.custom(lambda p: np.where(np.isclose(p[:, 0], 1.0), -400.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"w\^2 = exp\(-2 Q\) overflows at Q = -400.0"):
            lifting.lift_identity_check(domains.circle(1.0, 10), w, 2)


def test_lift_identity_where_the_weight_is_negligible():
    # Q = x^2 on [-6, 6]: near the ends w * max(1, |x|) falls below 1e-12,
    # so neighbouring lifted points lie within 1e-12 of each other.
    cand = domains.interval(-6.0, 6.0, 25)
    out = lifting.lift_identity_check(cand, AdmissibleWeight.quadratic(), 2)
    for rec in out:
        assert rec["lhs_method"] == rec["rhs_method"] == "exhaustive"
        assert rec["relative_gap"] <= 1e-12, rec


def test_lift_identity_past_the_column_norm_underflow():
    # Q = 100: at n = 4 every lifted column carries |t|^4 = e^-400, whose
    # square underflows a float, so its norm does too.
    w = AdmissibleWeight.custom(lambda p: np.full(len(p), 100.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = lifting.lift_identity_check(domains.circle(1.0, 6), w, 4)
    for rec in out:
        assert rec["lhs_method"] == rec["rhs_method"] == "exhaustive"
        assert rec["relative_gap"] <= 1e-12, rec
    assert out[3]["rhs_log"] == pytest.approx(out[3]["lhs_log"], rel=1e-14)


def test_lift_identity_where_both_deltas_underflow():
    # Q = 400: at n = 1 both sides' logs are near -799.3, so both delta_1
    # are 0.0 and the gap comes from the logs.
    w = AdmissibleWeight.custom(lambda p: np.full(len(p), 400.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (rec,) = lifting.lift_identity_check(domains.circle(1.0, 6), w, 1)
    assert rec["lhs_method"] == rec["rhs_method"] == "exhaustive"
    assert rec["delta_lhs"] == rec["delta_rhs"] == 0.0
    assert rec["lhs_log"] == pytest.approx(-799.3, abs=0.1)
    assert rec["relative_gap"] <= 1e-12, rec


def test_lift_refuses_an_underflowing_lifted_column_by_name():
    # Q = 300: the lifted columns carry |t|^n = e^(-300 n), a normal float
    # for n <= 2 and 0 at n = 3.
    w = AdmissibleWeight.custom(lambda p: np.full(len(p), 300.0))
    cand = domains.circle(1.0, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = lifting.lift_identity_check(cand, w, 2)
        message = r"degree 3: w\^3 = exp\(-3 Q\) underflows a lifted column at Q = 300.0"
        with pytest.raises(InvalidInputError, match=message):
            lifting.lift_identity_check(cand, w, 3)
    for rec in out:
        assert rec["lhs_method"] == rec["rhs_method"] == "exhaustive"
        assert rec["relative_gap"] <= 1e-12, rec


@pytest.mark.parametrize(
    "cand, w",
    [
        (domains.circle(1.0, 48), AdmissibleWeight.zero()),
        (domains.disk(1.0, 4, 8), AdmissibleWeight.quadratic()),
    ],
)
def test_lift_identity_with_the_fekete_sequence(cand, w):
    # The sequence's searched values equal the check's own searches.
    seq = fekete.diameter_sequence(cand, w, 3)
    own = lifting.lift_identity_check(cand, w, 3)
    assert lifting.lift_identity_check(cand, w, 3, fekete_seq=seq) == own


def test_pruned_walk_scores_few_subsets_on_the_weighted_disk(monkeypatch):
    # At n = 3 the search's value leaves at most 3,000 of the C(33, 4) =
    # 40,920 4-subsets of the weighted disk to score.
    counts = {}
    walk = lifting._subset_scores

    def spy(cols, count, *args):
        scores, subsets = walk(cols, count, *args)
        counts[count, cols.shape[1]] = len(scores)
        return scores, subsets

    monkeypatch.setattr(lifting, "_subset_scores", spy)
    out = lifting.lift_identity_check(domains.disk(1.0, 4, 8), AdmissibleWeight.quadratic(), 3)
    assert out[2]["lhs_method"] == "exhaustive"
    assert counts[4, 33] <= 3_000


def test_lift_identity_matches_brute_force():
    """Exhaustive maxima equal a max of the public VDMs over all subsets."""
    cand = domains.circle(1.0, 12)
    # Q = 0.3 Re z, and w = 0 at z = 1: subsets holding it are skipped.
    w = AdmissibleWeight.custom(
        lambda p: np.where(np.isclose(p[:, 0], 1.0), np.inf, 0.3 * p[:, 0].real)
    )
    lift = lifting.homogeneous_lift(cand, w, 4)
    assert len(lift) == 4 * 11  # z = 1 dropped
    out = lifting.lift_identity_check(cand, w, 2)
    for rec, n_pts in zip(out, (2, 3)):
        n = rec["n"]
        assert rec["lhs_method"] == rec["rhs_method"] == "exhaustive"
        lhs = max(
            vdm.log_abs_weighted_vdm(cand.points[list(c)], n, w).log_abs
            for c in itertools.combinations(range(len(cand)), n_pts)
        )
        rhs = max(
            vdm.log_abs_homogeneous_vdm(lift[list(c)], n).log_abs
            for c in itertools.combinations(range(len(lift)), n_pts)
        )
        assert rec["lhs_log"] == pytest.approx(lhs, rel=1e-12)
        assert rec["rhs_log"] == pytest.approx(rhs, rel=1e-12)


def test_lift_identity_with_widely_spread_weights():
    # Lift radii e^25 and e^-20: a rank rule relative to the largest R
    # diagonal once rejected every nonsingular pair on the lift.
    pts = [0.3 + 0.7j, -0.6 + 0.2j, 0.1 - 0.8j]
    cand = domains.custom(pts)
    w = AdmissibleWeight.custom(
        lambda p: np.where(np.isclose(p[:, 0], pts[0]), -25.0, 20.0)
    )
    (rec,) = lifting.lift_identity_check(cand, w, 1)
    assert rec["lhs_method"] == rec["rhs_method"] == "exhaustive"
    assert rec["relative_gap"] <= 1e-12


def _assert_matches_brute_force(cand, w, n_max, m_t):
    """Exhaustive maxima equal a max of the public VDMs over all subsets."""
    lift = lifting.homogeneous_lift(cand, w, m_t)
    for rec in lifting.lift_identity_check(cand, w, n_max, m_t=m_t):
        n = rec["n"]
        n_pts = dimension_counts(n, cand.dimension)[0]
        assert rec["lhs_method"] == rec["rhs_method"] == "exhaustive"
        lhs = max(
            vdm.log_abs_weighted_vdm(cand.points[list(c)], n, w).log_abs
            for c in itertools.combinations(range(len(cand)), n_pts)
        )
        rhs = max(
            vdm.log_abs_homogeneous_vdm(lift[list(c)], n).log_abs
            for c in itertools.combinations(range(len(lift)), n_pts)
        )
        assert rec["lhs_log"] == pytest.approx(lhs, rel=1e-12)
        assert rec["rhs_log"] == pytest.approx(rhs, rel=1e-12)


def test_batched_max_across_chunk_edges(monkeypatch):
    # Depth k of the prefix tree over n_pts-subsets of m points holds
    # C(m - n_pts + k, k) nodes, walked in chunks of _chunk_nodes(n_pts - k, m)
    # nodes.  Below the root every depth needs two or more chunks of 2 to 9.
    monkeypatch.setattr(lifting, "_CHUNK_ENTRIES", 120)
    cand = domains.circle(1.1, 13)
    for m, n_pts in ((13, 2), (13, 3), (26, 2), (26, 3)):
        for k in range(1, n_pts):
            per_chunk = lifting._chunk_nodes(n_pts - k, m)
            assert 2 <= per_chunk < math.comb(m - n_pts + k, k), (m, n_pts, k)
    _assert_matches_brute_force(cand, AdmissibleWeight.quadratic(), 2, 2)


def test_batched_max_walks_past_rank_deficient_subsets():
    """Lift pairs over one base point are singular; the best batched score
    belongs to a subset that the pivoted-QR rank rule rejects."""
    centre = 0.3 + 0.7j
    cand = domains.custom(np.array([centre, -0.6 + 0.2j, 0.1 - 0.8j])[:, None])
    w = AdmissibleWeight.custom(
        lambda p: np.where(np.isclose(p[:, 0], centre), -25.0, 20.0)
    )
    lift = lifting.homogeneous_lift(cand, w, 4)
    block = vdm.monomial_values(degree_block(1, 2), lift)
    pairs = list(itertools.combinations(range(len(lift)), 2))
    scores = [np.linalg.slogdet(block[:, list(c)])[1] for c in pairs]
    best = pairs[int(np.argmax(scores))]
    assert vdm.log_abs_homogeneous_vdm(lift[list(best)], 1).is_zero
    _assert_matches_brute_force(cand, w, 1, 4)


def _assert_scores_match_slogdet(cols, n, q):
    """Every subset, in combinations order; scores equal slogdet - n sum Q near the maximum."""
    count, m = cols.shape
    combos = [list(c) for c in itertools.combinations(range(m), count)]
    got, subsets = _scores(cols, count, n, q)
    assert np.array_equal(subsets, combos)
    finite = np.array([np.isfinite(q[c]).all() for c in combos])
    assert np.all(got[~finite] == -np.inf)
    with np.errstate(invalid="ignore"):  # inf - inf where Q = +inf
        want = np.array([np.linalg.slogdet(cols[:, c])[1] - n * q[c].sum()
                         for c in combos])
        hadamard = np.array([np.log(np.linalg.norm(cols[:, c], axis=0)).sum()
                             - n * q[c].sum() for c in combos])
    unit, scale = vdm.weighted_columns(cols, q, n)
    singular = finite & np.array([vdm._logdet_qr(unit[:, c], scale[c]).is_zero for c in combos])
    # A subset the rank rule rejects scores rounding noise by either route,
    # far below Hadamard's bound prod |a_s|.
    assert np.all(got[singular] < hadamard[singular] - 30)
    regular = finite & ~singular
    near = regular & (want >= want[regular].max() - 30)
    assert near.sum() > 0
    assert np.abs(got[near] - want[near]).max() <= 1e-12


def _scores(cols, count, n, q, *floor):
    """The walk's scores of the weighted columns w^n cols, and its subsets."""
    unit, scale = vdm.weighted_columns(cols, q, n)
    return lifting._subset_scores(unit, count, scale, *floor)


def _max(cols, count, n, q, *known):
    """The exhaustive max over the weighted columns w^n cols."""
    unit, scale = vdm.weighted_columns(cols, q, n)
    return lifting._exhaustive_max(unit, count, scale, *known)


def _brute_force_max(cols, n, q):
    """The largest pivoted-QR value of the weighted columns w^n cols over
    the subsets of finite Q that the rank rule accepts."""
    unit, scale = vdm.weighted_columns(cols, q, n)
    best = -math.inf
    for c in itertools.combinations(range(cols.shape[1]), cols.shape[0]):
        best = max(best, vdm._logdet_qr(unit[:, list(c)], scale[list(c)]).log_abs)
    return best


def _search_value(pts, n, q):
    """``fekete.search_fekete``'s value on the points pts, where Q = q."""

    def weight(p):
        return q[(p[:, None, :] == pts[None]).all(axis=2).argmax(axis=1)]

    cfg = fekete.search_fekete(domains.custom(pts), n, AdmissibleWeight.custom(weight))
    return cfg.log_weighted_vdm


def _rank_deficient_lift_pairs():
    """The lift of three points with Q = -25 at one and 20 at the others, and its
    degree-1 block: pairs over one base point are singular."""
    centre = 0.3 + 0.7j
    cand = domains.custom(np.array([centre, -0.6 + 0.2j, 0.1 - 0.8j])[:, None])
    w = AdmissibleWeight.custom(
        lambda p: np.where(np.isclose(p[:, 0], centre), -25.0, 20.0)
    )
    lift = lifting.homogeneous_lift(cand, w, 4)
    return lift, vdm.monomial_values(degree_block(1, 2), lift)


@pytest.mark.parametrize(
    "seed, d, n, m",
    [(0, 1, 3, 12), (1, 1, 5, 9), (2, 2, 1, 14), (3, 2, 2, 11)],
)
def test_subset_scores_match_slogdet(seed, d, n, m):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    q = rng.uniform(-0.5, 0.5, m)
    q[rng.integers(m)] = np.inf
    cols = vdm.monomial_values(enumerate_basis(n, d), pts)
    _assert_scores_match_slogdet(cols, n, q)


def test_subset_scores_on_rank_deficient_lift_pairs():
    lift, block = _rank_deficient_lift_pairs()
    _assert_scores_match_slogdet(block, 1, np.zeros(len(lift)))


def test_exhaustive_max_traced_peak():
    # The search's value leaves 210 subsets to score and one chunk per depth.
    cand = domains.circle(1.0, 48)
    cols = vdm.monomial_values(enumerate_basis(3, 1), cand.points)
    known = fekete.search_fekete(cand, 3, AdmissibleWeight.zero()).log_weighted_vdm
    tracemalloc.start()
    try:
        value = _max(cols, 4, 3, np.zeros(48), known)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(math.log(16.0), rel=1e-14)  # 4 roots of unity
    assert peak < 1e6


def test_walk_without_a_floor_traced_peak():
    # All 194,580 scores and subsets (int8 indices), gathered chunk by chunk
    # and joined once.
    cols = vdm.monomial_values(enumerate_basis(3, 1), domains.circle(1.0, 48).points)
    tracemalloc.start()
    try:
        scores, subsets = _scores(cols, 4, 3, np.zeros(48))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scores) == len(subsets) == math.comb(48, 4)
    assert peak < 8e6


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]),
    st.integers(1, 6),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_pruned_walk_matches_the_full_walk(seed, dn, extra, weighted):
    # Random points in C^d, one of Q = +inf.  The search's value, as the
    # floor, prunes only subsets scoring below it, and leaves the other
    # scores and the maximum as they are with no floor.
    d, n = dn
    count = dimension_counts(n, d)[0]
    m = count + extra
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    q = rng.uniform(-0.5, 0.5, m) if weighted else np.zeros(m)
    q[rng.integers(m)] = np.inf
    cols = vdm.monomial_values(enumerate_basis(n, d), pts)
    floor = _search_value(pts, n, q)
    assert floor > -np.inf
    full, every = _scores(cols, count, n, q)
    pruned, subsets = _scores(cols, count, n, q, floor)
    rank = {tuple(s): i for i, s in enumerate(every.tolist())}
    kept = np.array([rank[tuple(s)] for s in subsets.tolist()], dtype=int)
    assert np.all(np.diff(kept) > 0)  # a subsequence of the full walk's subsets
    assert np.array_equal(pruned, full[kept])
    left_out = np.ones(len(full), dtype=bool)
    left_out[kept] = False
    assert np.all(full[left_out] < floor)
    assert _max(cols, count, n, q, floor) == _brute_force_max(cols, n, q)


def test_exhaustive_max_rescores_when_the_rank_rule_rejects_every_pruned_subset(
    monkeypatch,
):
    # The lift pairs of test_batched_max_walks_past_rank_deficient_subsets,
    # with a known value just below the best score, which is a singular
    # pair's: every pair scored at the floor or above is singular, so the
    # maximum comes from a second walk with no floor.
    lift, block = _rank_deficient_lift_pairs()
    q = np.zeros(len(lift))
    full, _ = _scores(block, 2, 1, q)
    known = full.max() - 1e-6
    floor = known - lifting._PRUNE_SLACK * max(1.0, abs(known))
    pruned, subsets = _scores(block, 2, 1, q, floor)
    above = subsets[pruned >= floor]
    assert len(above) > 0
    unit, scale = vdm.weighted_columns(block, q, 1)
    assert all(vdm._logdet_qr(unit[:, s], scale[s]).is_zero for s in above)
    walks = []
    walk = lifting._subset_scores

    def spy(*args):
        walks.append(args[3:])
        return walk(*args)

    monkeypatch.setattr(lifting, "_subset_scores", spy)
    want = _brute_force_max(block, 1, q)
    assert want > -np.inf
    assert _max(block, 2, 1, q, known) == want
    assert walks == [(floor,), ()]


def test_exhaustive_max_rescores_when_the_floor_prunes_every_subset():
    # A floor above every pair's Hadamard bound |a_x| |a_y|: the floored
    # walk returns no subset, and the maximum comes from a second walk with
    # no floor.
    lift, block = _rank_deficient_lift_pairs()
    q = np.zeros(len(lift))
    floor = 2 * np.log(np.linalg.norm(block, axis=0)).max() + 1.0
    scores, subsets = _scores(block, 2, 1, q, floor)
    assert scores.shape == (0,) and subsets.shape == (0, 2)
    assert _max(block, 2, 1, q, floor) == _brute_force_max(block, 1, q)


def test_exhaustive_max_without_a_greedy_floor():
    # w^3 = e^3000 overflows at the first point, and with no known value
    # the walk runs with no floor.
    cand = domains.interval(-1.0, 1.0, 9)
    cols = vdm.monomial_values(enumerate_basis(3, 1), cand.points)
    q = np.linspace(0.0, 0.5, 9)
    q[0] = -1000.0
    want = _brute_force_max(cols, 3, q)
    assert want > 1000.0
    assert _max(cols, 4, 3, q) == want


@pytest.mark.parametrize("radius", [0.8, 1.0, 1.2])
def test_pruned_walk_scores_few_subsets_on_the_circle(radius):
    # At n = 3 the search's value leaves 210 of the 194,580 4-subsets of 48
    # points of the circle to score at every radius: the walk's row basis,
    # orthonormal for the columns, makes the bound blind to how the rows
    # scale with the radius.
    cand = domains.circle(radius, 48)
    cols = vdm.monomial_values(enumerate_basis(3, 1), cand.points)
    known = fekete.search_fekete(cand, 3, AdmissibleWeight.zero()).log_weighted_vdm
    scores, subsets = _scores(cols, 4, 3, np.zeros(48), known)
    assert subsets.shape == (len(scores), 4)
    assert len(scores) <= 250


def test_pruned_walk_scores_few_subsets_on_the_weighted_interval(monkeypatch):
    # 24 Chebyshev nodes under Q = x^2: at n = 2 the search's value leaves
    # about 10,250 of the C(96, 3) = 142,880 3-subsets of the lift to score.
    counts = {}
    walk = lifting._subset_scores

    def spy(cols, count, *args):
        scores, subsets = walk(cols, count, *args)
        counts[count, cols.shape[1]] = len(scores)
        return scores, subsets

    monkeypatch.setattr(lifting, "_subset_scores", spy)
    cand = domains.interval(-1.0, 1.0, 24, "chebyshev")
    out = lifting.lift_identity_check(cand, AdmissibleWeight.quadratic(), 2)
    assert out[1]["rhs_method"] == "exhaustive"
    assert counts[3, 96] <= 12_000


@pytest.mark.parametrize("slope", [0.0, 2.0], ids=["on-an-axis", "on-a-line"])
def test_exhaustive_max_of_columns_with_dependent_rows(slope):
    # 7 points on the line y = slope x in C^2: the 6 degree-2 monomials span
    # 3 dimensions there, so every 6-subset is singular.  On the axis y = 0
    # three rows are zero and R has zero pivots, so every subset scores
    # -inf; on y = 2x R's pivots are rounding noise, not zero, so the
    # scores are too, and the rank rule rejects every subset.
    t = np.linspace(-1.0, 1.0, 7)
    cols = vdm.monomial_values(enumerate_basis(2, 2), np.column_stack([t, slope * t]))
    q = np.zeros(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores, subsets = _scores(cols, 6, 2, q)
        assert np.array_equal(subsets, list(itertools.combinations(range(7), 6)))
        if slope == 0.0:
            assert np.all(scores == -np.inf)
        assert _max(cols, 6, 2, q) == -np.inf
        assert _max(cols, 6, 2, q, 0.0) == -np.inf


def test_batched_max_skips_infinite_q(monkeypatch):
    monkeypatch.setattr(lifting, "_CHUNK_ENTRIES", 60)  # skipped subsets in every chunk
    cand = domains.interval(-1.0, 1.0, 9)
    # w = 0 at both ends, Q = x^2 elsewhere
    w = AdmissibleWeight.custom(
        lambda p: np.where(np.abs(p[:, 0].real) > 0.99, np.inf, p[:, 0].real ** 2)
    )
    _assert_matches_brute_force(cand, w, 2, 2)


@pytest.mark.parametrize(
    "cand, w",
    [
        # w = 0 at z = 1 leaves two usable points for N = 3 at n = 2
        (
            domains.circle(1.0, 3),
            AdmissibleWeight.custom(
                lambda p: np.where(np.isclose(p[:, 0], 1.0), np.inf, 0.0)
            ),
        ),
        (domains.circle(1.0, 2), AdmissibleWeight.zero()),
    ],
)
def test_lift_identity_too_few_usable_points(cand, w):
    with pytest.raises(InvalidInputError, match="points of finite Q"):
        lifting.lift_identity_check(cand, w, 2)


def test_lift_identity_without_unisolvent_subset():
    # 7 points on a line in C^2: no 6 of them are unisolvent at degree 2
    pts = np.array([[t, 2 * t] for t in np.linspace(-1.0, 1.0, 7)], dtype=complex)
    with pytest.raises(InvalidInputError, match="unisolvent"):
        lifting.lift_identity_check(domains.custom(pts), AdmissibleWeight.zero(), 2)


def test_lift_identity_past_the_column_norm_overflow():
    # Q = -200 at z = 1: at n = 2 that point's lifted columns carry
    # |t|^2 = e^400, whose squares overflow a float, so their norms do too.
    w = AdmissibleWeight.custom(lambda p: np.where(np.isclose(p[:, 0], 1.0), -200.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = lifting.lift_identity_check(domains.circle(1.0, 10), w, 2)
    for rec in out:
        assert rec["relative_gap"] <= 1e-12, rec
    assert out[1]["rhs_log"] == pytest.approx(out[1]["lhs_log"], rel=1e-14)


def _assert_scores_match_scaled_slogdet(scale):
    """Scores of 3-subsets of 6 random columns, the first scaled to ``scale``,
    against slogdet of each subset divided by its largest modulus."""
    rng = np.random.default_rng(1)
    cols = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
    cols[:, 0] = np.array([1.0, 0.3, 0.2]) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores, subsets = _scores(cols, 3, 1, np.zeros(6))
    assert len(scores) == math.comb(6, 3)
    for score, subset in zip(scores, subsets):
        peak = np.abs(cols[:, subset]).max()
        want = np.linalg.slogdet(cols[:, subset] / peak)[1] + 3 * math.log(peak)
        assert score == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("scale", [1.2e154, 1e155])
def test_subset_scores_of_columns_past_the_reflector_overflow(scale):
    # A column of norm 1.28e154 has a finite norm whose square overflows in
    # the reflector; one of norm 1.06e155 has an infinite norm.
    _assert_scores_match_scaled_slogdet(scale)


def test_subset_scores_of_a_column_past_the_norm_underflow():
    # A column of norm 1.06e-160 has a square that underflows.
    _assert_scores_match_scaled_slogdet(1e-160)


@pytest.mark.parametrize(
    "cand, w, n",
    [
        (domains.circle(1.0, 24), AdmissibleWeight.zero(), 3),
        (domains.interval(-1.0, 1.0, 24, "chebyshev"), AdmissibleWeight.quadratic(), 3),
        (domains.disk(1.0, 4, 8), AdmissibleWeight.quadratic(), 3),
        (domains.torus(2, 5), AdmissibleWeight.zero(), 2),
    ],
    ids=["circle", "chebyshev-quadratic", "disk-quadratic", "torus2"],
)
def test_subset_scores_sum_to_the_gram_log_det(cand, w, n):
    # Cauchy-Binet: det G = sum_S prod_{x in S} mu_x |det V_w[:, S]|^2 over
    # the N-subsets S, so the walk's scores and the Gram's Cholesky factor
    # give one log det by two routes.
    mu = gram.DiscreteMeasure.from_reference(cand)
    q = w(cand.points)
    cols = vdm.monomial_values(enumerate_basis(n, cand.dimension), cand.points)
    scores, subsets = _scores(cols, len(cols), n, q)
    with np.errstate(divide="ignore"):  # the disk's centre has mass 0
        log_mass = np.log(mu.masses)[subsets].sum(axis=1)
    got = scipy.special.logsumexp(2 * scores + log_mass)
    assert got == pytest.approx(gram.gram_matrix(mu, w, n).log_det, rel=0, abs=1e-13)


def test_descending_refuses_a_nan_score():
    with pytest.raises(InvalidInputError, match="NaN"):
        list(lifting._descending(np.array([1.0, math.nan, 3.0, 2.0])))
