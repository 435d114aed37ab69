"""Candidate-set constructors, weights, and CSV round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pluripot import domains
from pluripot.domains import AdmissibleWeight, CandidateSet
from pluripot.errors import InvalidInputError


def test_circle_layout():
    c = domains.circle(2.0, 4)
    expected = 2.0 * np.array([1, 1j, -1, -1j])
    assert np.allclose(c.points[:, 0], expected)
    assert np.allclose(c.masses, 0.25)
    assert c.dimension == 1 and len(c) == 4


def test_interval_rules():
    eq = domains.interval(-1.0, 1.0, 5)
    assert np.allclose(eq.points[:, 0].real, np.linspace(-1, 1, 5))
    ch = domains.interval(-1.0, 1.0, 3, rule="chebyshev")
    assert np.allclose(sorted(ch.points[:, 0].real), [-1.0, 0.0, 1.0])
    with pytest.raises(InvalidInputError):
        domains.interval(1.0, -1.0, 5)
    with pytest.raises(InvalidInputError):
        domains.interval(-1.0, 1.0, 5, rule="gauss")


def test_disk_masses_are_area_weights():
    c = domains.disk(1.0, 10, 16)
    assert len(c) == 161  # center + 10*16 ring points
    assert c.masses[0] == 0.0
    assert abs(c.masses.sum() - 1.0) < 1e-12
    # mass of each ring is proportional to its radius (r dr dtheta)
    r = np.abs(c.points[1:, 0]).reshape(10, 16)[:, 0]
    ring_mass = c.masses[1:].reshape(10, 16).sum(axis=1)
    assert np.allclose(ring_mass / ring_mass[0], r / r[0])


def test_torus_and_product():
    t = domains.torus(2, 3)
    assert len(t) == 9 and t.dimension == 2
    assert np.allclose(np.abs(t.points), 1.0)
    p = domains.product([domains.circle(1.0, 3), domains.circle(0.5, 4)])
    assert p.dimension == 2 and len(p) == 12
    assert abs(p.masses.sum() - 1.0) < 1e-12
    mixed = domains.product([domains.interval(-1.0, 1.0, 5), domains.circle(1.0, 4)])
    assert mixed.dimension == 2 and len(mixed) == 20


def test_duplicates_rejected():
    cases = [
        [[1.0 + 0j], [1.0 + 5e-13j]],
        # (0, 0) and (2e-13, 0) are not neighbours in lexicographic order.
        [[0.0, 0.0], [1e-13, 5.0], [2e-13, 0.0]],
    ]
    for pts in cases:
        with pytest.raises(InvalidInputError):
            domains.custom(np.array(pts))


@st.composite
def near_duplicate_sets(draw):
    """Integer grids scaled from 1e-13 to e^25, some with a planted pair."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(2, 12))
    scale = math.exp(draw(st.floats(math.log(1e-13), 25.0)))
    ints = draw(st.lists(st.integers(-3, 3), min_size=2 * d * m, max_size=2 * d * m))
    flat = np.array(ints, dtype=float).reshape(m, 2 * d) * scale
    if draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        step = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d,
                                      max_size=2 * d)))
        step[0] += np.linalg.norm(step) == 0
        r = draw(st.sampled_from([0.5, 0.99, 1.01, 2.0])) * domains.DUPLICATE_TOL
        flat[i] = flat[j] + r * step / np.linalg.norm(step)
    return flat[:, :d] + 1j * flat[:, d:]


@settings(max_examples=200, deadline=None)
@given(near_duplicate_sets())
def test_duplicate_check_matches_brute_force(points):
    flat = np.column_stack([points.real, points.imag])
    dist = np.linalg.norm(flat[:, None] - flat[None], axis=-1)
    expected = np.any(dist[np.triu_indices(len(flat), 1)] <= domains.DUPLICATE_TOL)
    try:
        domains.custom(points)
        rejected = False
    except InvalidInputError:
        rejected = True
    assert rejected == expected


@pytest.mark.parametrize("gap, rejected", [(0.99e-12, True), (1.01e-12, False)])
def test_near_duplicate_on_imaginary_axis(gap, rejected):
    # Every point shares its real part, so the check must sort on another
    # coordinate to stay fast; it must still see the planted pair.
    y = np.linspace(-1.0, 1.0, 8000)
    pts = 1j * np.append(y, y[5000] + gap)
    if rejected:
        with pytest.raises(InvalidInputError, match="duplicates"):
            domains.custom(pts[:, None])
    else:
        assert len(domains.custom(pts[:, None])) == 8001


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_points_rejected(bad):
    with pytest.raises(InvalidInputError, match="finite"):
        domains.custom(np.array([[0.0], [bad]], dtype=complex))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # linspace to inf
def test_non_finite_geometry_rejected():
    with pytest.raises(InvalidInputError, match="finite"):
        domains.circle(math.nan, 8)
    with pytest.raises(InvalidInputError, match="finite"):
        domains.interval(-1.0, math.inf, 8)


def test_mass_validation():
    pts = np.array([[0.0 + 0j], [1.0 + 0j]])
    with pytest.raises(InvalidInputError):
        CandidateSet(pts, np.array([0.6, 0.6]))
    with pytest.raises(InvalidInputError):
        CandidateSet(pts, np.array([-0.1, 1.1]))
    with pytest.raises(InvalidInputError):
        CandidateSet(pts, np.array([np.nan, 1.0]))
    with pytest.raises(InvalidInputError):
        CandidateSet(pts, np.array([1.0]))


@pytest.mark.parametrize(
    "shape", [(3,), (2, 2, 2), (3, 0)], ids=["1-D", "3-D", "no-coordinates"]
)
def test_candidate_points_must_be_m_by_d(shape):
    pts = np.arange(math.prod(shape), dtype=complex).reshape(shape)
    with pytest.raises(InvalidInputError, match=r"\(M, d\)"):
        CandidateSet(pts)


def test_build_set():
    c = domains.build_set({"kind": "circle", "radius": 1.0, "m": 8})
    assert len(c) == 8 and np.allclose(np.abs(c.points), 1.0)
    with pytest.raises(InvalidInputError):
        domains.build_set({"kind": "pretzel"})


def test_weights():
    pts = np.array([[0.0 + 0j], [1.0 + 1j]])
    assert np.allclose(AdmissibleWeight.zero()(pts), 0.0)
    assert np.allclose(AdmissibleWeight.quadratic()(pts), [0.0, 2.0])
    bad = AdmissibleWeight.custom(lambda p: np.full(p.shape[0], np.nan))
    with pytest.raises(InvalidInputError):
        bad(pts)


def test_as_points_shapes():
    assert domains.as_points(1.0 + 1j).shape == (1, 1)
    assert domains.as_points([0.0, 1.0, 2.0]).shape == (3, 1)
    pts = domains.as_points(np.ones((4, 2)))
    assert pts.shape == (4, 2) and pts.dtype == complex
    # every caller normalises the same way, a 0-d point included
    assert np.allclose(AdmissibleWeight.quadratic()(1.0 + 1j), [2.0])
    assert domains.custom([0.0, 1.0, 2.0]).points.shape == (3, 1)


def test_infinite_q_means_zero_weight():
    w = AdmissibleWeight.custom(lambda p: np.where(p[:, 0].real > 0, np.inf, 0.0))
    q = w(np.array([[1.0 + 0j], [-1.0 + 0j]]))
    assert np.isinf(q[0]) and q[1] == 0.0


def test_csv_round_trip(tmp_path):
    c = domains.disk(1.0, 3, 5)
    path = tmp_path / "pts.csv"
    domains.export_csv(c, path)
    back = domains.import_csv(path)
    assert np.array_equal(back.points, c.points)
    assert np.array_equal(back.masses, c.masses)


def test_csv_round_trip_no_masses(tmp_path):
    c = domains.custom(np.array([[1.0 + 2j], [3.0 - 4j]]))
    path = tmp_path / "pts.csv"
    domains.export_csv(c, path)
    back = domains.import_csv(path)
    assert np.array_equal(back.points, c.points)
    assert back.masses is None


@pytest.mark.parametrize(
    "text, line",
    [
        ("re_1,im_1,mass\n0.0,0.0,0.5\n1.0,0.5\n", 3),  # short row
        ("re_1,im_1\n0.0,0.0\n1.0,x\n", 3),  # non-numeric cell
        ("re_1,im_1,re_2,mass\n0.0,0.0,1.0,1.0\n", 1),  # odd coordinate count
    ],
    ids=["short-row", "non-numeric", "odd-header"],
)
def test_import_csv_names_the_bad_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match=f"line {line}:"):
        domains.import_csv(path)
