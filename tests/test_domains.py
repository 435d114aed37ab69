"""Candidate-set constructors, weights, and CSV round-trips."""

import numpy as np
import pytest

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


def test_duplicates_rejected():
    cases = [
        [[1.0 + 0j], [1.0 + 5e-13j]],
        # (0, 0) and (2e-13, 0) are not neighbours in lexicographic order.
        [[0.0, 0.0], [1e-13, 5.0], [2e-13, 0.0]],
    ]
    for pts in cases:
        with pytest.raises(InvalidInputError):
            domains.custom(np.array(pts))


def test_mass_validation():
    pts = np.array([[0.0 + 0j], [1.0 + 0j]])
    with pytest.raises(InvalidInputError):
        CandidateSet(1, pts, np.array([0.6, 0.6]), "custom")
    with pytest.raises(InvalidInputError):
        CandidateSet(1, pts, np.array([-0.1, 1.1]), "custom")
    with pytest.raises(InvalidInputError):
        CandidateSet(1, pts, np.array([np.nan, 1.0]), "custom")
    with pytest.raises(InvalidInputError):
        CandidateSet(1, pts, np.array([1.0]), "custom")


def test_build_set():
    c = domains.build_set({"kind": "circle", "radius": 1.0, "m": 8})
    assert c.geometry == "circle" and len(c) == 8
    with pytest.raises(InvalidInputError):
        domains.build_set({"kind": "pretzel"})


def test_weights():
    pts = np.array([[0.0 + 0j], [1.0 + 1j]])
    assert np.allclose(AdmissibleWeight.zero()(pts), 0.0)
    assert np.allclose(AdmissibleWeight.quadratic()(pts), [0.0, 2.0])
    rad = AdmissibleWeight.radial_table([0.0, 2.0], [0.0, 4.0])
    assert np.allclose(rad(pts), [0.0, 2.0 * np.sqrt(2.0)])
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


def test_check_nondegenerate():
    c = domains.interval(-1.0, 1.0, 3)
    w = AdmissibleWeight.custom(lambda p: np.where(np.abs(p[:, 0]) > 0.5, np.inf, 0.0))
    domains.check_nondegenerate(AdmissibleWeight.zero(), c, 2)
    with pytest.raises(InvalidInputError):
        domains.check_nondegenerate(w, c, 2)  # only 1 finite point, needs 3


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
