"""The benchmark's closed forms, pinned to values known by hand."""

import math

import numpy as np
import pytest

import oracles


def test_guest_nodes_degree_2_and_3():
    np.testing.assert_allclose(oracles.guest_nodes(2), [-1.0, 0.0, 1.0], atol=1e-15)
    s = 1.0 / math.sqrt(5.0)
    np.testing.assert_allclose(oracles.guest_nodes(3), [-1.0, -s, s, 1.0], atol=1e-15)


def test_guest_design_beats_nearby_designs():
    n = 3
    best = oracles.design_log_det(oracles.guest_nodes(n), n)
    for shift in (1e-3, -1e-3):
        moved = oracles.guest_nodes(n) + np.array([0.0, shift, 0.0, 0.0])
        assert oracles.design_log_det(moved, n) < best


def test_design_log_det_by_hand():
    # V on {-1, 0, 1} has |det| = 2, and G = V V^T / 3.
    assert oracles.design_log_det([-1.0, 0.0, 1.0], 2) == pytest.approx(
        2 * math.log(2) - 3 * math.log(3), abs=1e-14)


def test_snap_to_grid():
    grid = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(oracles.snap_to_grid([0.04, 0.26, 0.97], grid), [0.0, 0.3, 1.0])


@pytest.mark.parametrize("big_n, radius, exact", [(2, 1.0, 2.0), (3, 1.0, 3.0**1.5), (4, 2.0, 1024.0)])
def test_roots_of_unity_vdm_by_hand(big_n, radius, exact):
    assert math.exp(oracles.roots_of_unity_log_vdm(big_n, radius)) == pytest.approx(exact, rel=1e-13)


def test_roots_of_unity_vdm_matches_a_determinant():
    big_n, radius = 5, 0.7
    z = radius * np.exp(2j * np.pi * np.arange(big_n) / big_n)
    direct = oracles.log_abs_det_monomials(z, big_n - 1)
    assert direct == pytest.approx(oracles.roots_of_unity_log_vdm(big_n, radius), rel=1e-12)


def test_circle_delta():
    assert oracles.circle_delta(1, 0.5) == pytest.approx(1.0, rel=1e-14)
    assert oracles.circle_delta(2, 1.0) == pytest.approx(math.sqrt(3.0), rel=1e-14)


@pytest.mark.parametrize("k, exact", [(1, 1.0), (2, 0.5), (3, 0.25), (8, 2.0**-7)])
def test_interval_chebyshev_by_hand(k, exact):
    assert oracles.interval_chebyshev(k) == exact


def test_interval_chebyshev_on_extrema_grid():
    # T_k / 2^{k-1} is monic and reaches 2^{1-k} on the 841-node extrema grid.
    x = np.cos(np.pi * np.arange(841) / 840)
    for k in (3, 7, 8):
        peak = np.max(np.abs(np.polynomial.chebyshev.chebval(x, [0] * k + [1]))) / 2 ** (k - 1)
        assert peak == pytest.approx(oracles.interval_chebyshev(k), rel=1e-14)
    assert oracles.interval_chebyshev(2, 0.0, 4.0) == pytest.approx(2.0)


def test_weighted_disk_values():
    assert oracles.WEIGHTED_DISK_DELTA == pytest.approx(0.3340136, abs=1e-7)
    assert math.exp(-oracles.WEIGHTED_DISK_RHS) == pytest.approx(oracles.WEIGHTED_DISK_DELTA, rel=1e-15)
    assert oracles.disk_rhs(0.5) == pytest.approx(math.log(2.0))


def test_bergman_sup_and_monomials():
    assert oracles.bergman_sup(2, 1) == pytest.approx(math.sqrt(3.0))
    assert oracles.bergman_sup(12, 2) == pytest.approx(math.sqrt(91.0))
    assert len(oracles.monomial_exponents(12, 2)) == 91
