"""Perturbation paths, derivative/concavity identities, weak-* diagnostics."""

import math

import numpy as np
import pytest

from pluripot import diag, domains, energy, fekete
from pluripot.domains import AdmissibleWeight
from pluripot.errors import DegenerateMeasureError, InvalidInputError
from pluripot.gram import DiscreteMeasure, gram_matrix


def _random_measure(seed, m=12):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=m) + 1j * rng.normal(size=m)
    cand = domains.custom(pts[:, None])
    masses = rng.random(m) + 0.05
    return DiscreteMeasure(cand, masses / masses.sum())


def _u_real(pts):
    return np.real(pts[:, 0])


def test_derivative_identity_random_instances():
    for seed in range(10):
        mu = _random_measure(seed)
        n = 1 + seed % 3
        rep = diag.f_n_path(
            mu, AdmissibleWeight.zero(), _u_real, n,
            t_grid=np.linspace(-0.3, 0.3, 5),
        )
        scale = np.maximum(np.abs(rep.analytic_derivatives), 1.0)
        rel = np.abs(rep.analytic_derivatives - rep.fd_derivatives) / scale
        assert float(rel.max()) < 1e-6, seed


def test_concavity_random_measures():
    for seed in range(5):
        mu = _random_measure(seed + 100)
        rep = diag.f_n_path(mu, AdmissibleWeight.zero(), _u_real, 2)
        assert rep.max_second_difference() <= 1e-8


def test_fekete_path_is_affine():
    c = domains.circle(1.0, 64)
    cfg = fekete.search_fekete(c, 4, AdmissibleWeight.zero())
    mu = fekete.empirical_measure(cfg, c)
    rep = diag.f_n_path(mu, AdmissibleWeight.zero(), _u_real, 4)
    assert float(np.max(np.abs(rep.second_differences))) <= 1e-8
    # derivative of an affine path is constant
    assert np.ptp(rep.analytic_derivatives) <= 1e-8


def test_constant_perturbation_slope():
    # u = 1 tilts every Gram entry by e^{-2nt}: f gains t * (d+1)/d * (l_n/(nN))...
    # in d=1 with u constant, f'(t) = (d+1)/(dN) * sum(mass * u * B) = 2 * u
    mu = _random_measure(42)
    rep = diag.f_n_path(
        mu, AdmissibleWeight.zero(), lambda p: np.ones(p.shape[0]), 2
    )
    assert np.allclose(rep.analytic_derivatives, 2.0, atol=1e-9)
    assert np.allclose(rep.fd_derivatives, 2.0, atol=1e-7)


def test_path_grid_validation():
    mu = _random_measure(1)
    with pytest.raises(InvalidInputError):
        diag.f_n_path(mu, AdmissibleWeight.zero(), _u_real, 1,
                      t_grid=np.array([0.0, 0.0, 1.0]))
    rep = diag.f_n_path(mu, AdmissibleWeight.zero(), _u_real, 1,
                        t_grid=np.array([0.0, 1.0]))
    with pytest.raises(InvalidInputError):
        rep.max_second_difference()



def test_path_grid_must_be_uniform():
    # The path on a Fekete measure of the circle is affine; a non-uniform
    # grid would make its second differences claim otherwise.
    c = domains.circle(1.0, 64)
    mu = fekete.empirical_measure(
        fekete.search_fekete(c, 4, AdmissibleWeight.zero()), c
    )
    with pytest.raises(InvalidInputError, match="uniformly spaced"):
        diag.f_n_path(mu, AdmissibleWeight.zero(), _u_real, 4,
                      t_grid=np.array([-0.3, -0.2, 0.0, 0.05, 0.3]))

def test_weak_star_distance_identical_is_zero():
    mu = _random_measure(3)
    assert diag.weak_star_distance(mu, mu) == 0.0


def test_weak_star_distance_circle_fekete():
    c = domains.circle(1.0, 201)
    cfg = fekete.search_fekete(c, 20, AdmissibleWeight.zero())
    mu = fekete.empirical_measure(cfg, c)
    dist = diag.weak_star_distance(mu, energy.torus(1), max_moment=5)
    assert dist <= 0.05


def test_weak_star_dimension_mismatch():
    mu = _random_measure(4)
    with pytest.raises(InvalidInputError):
        diag.weak_star_distance(mu, energy.torus(2))


def test_weak_star_model_moments_disk():
    # area measure on disk(1): int z^a conj(z)^b dA/pi = delta_ab / (a+1);
    # the closed-form reference here is the equilibrium measure (boundary Haar)
    c = domains.circle(0.5, 128)
    mu = DiscreteMeasure.from_reference(c)
    dist = diag.weak_star_distance(mu, energy.disk(0.5), max_moment=3)
    assert dist < 1e-12


def test_radial_cdf_distance_exact_for_matching_rings():
    # measure with mass 2rho^2 inside radius rho matches the weighted-disk CDF
    model = energy.weighted_disk()
    radii = np.array([0.25, 0.5, 1.0 / math.sqrt(2.0)])
    cdf = energy.equilibrium_cdf(model, radii)
    masses = np.diff(np.concatenate([[0.0], cdf]))
    pts = radii.astype(complex)[:, None]
    mu = DiscreteMeasure(domains.custom(pts), masses)
    assert diag.radial_cdf_distance(mu, model) <= masses.max() + 1e-12



@pytest.mark.parametrize("r", [0.5, 0.7, 1.0, 1.1, 3.0])
def test_radial_cdf_distance_of_circle_haar_to_its_disk(r):
    # Haar measure on |z| = r is the equilibrium measure of disk(r); the
    # computed |z| of its nodes differ from r by rounding.
    mu = DiscreteMeasure.from_reference(domains.circle(r, 64))
    assert diag.radial_cdf_distance(mu, energy.disk(r)) == 0.0
    assert diag.radial_cdf_distance(mu, energy.disk(1.1 * r)) == 1.0
    assert diag.radial_cdf_distance(mu, energy.disk(0.9 * r)) == 1.0


def test_radial_cdf_distance_of_tied_radii_on_the_circle():
    pts = np.array([1.0, 1j, -1.0, -1j])[:, None]
    mu = DiscreteMeasure.uniform(domains.custom(pts))
    assert diag.radial_cdf_distance(mu, energy.disk(1.0)) == 0.0

def test_radial_cdf_needs_d1():
    t = domains.torus(2, 4)
    mu = DiscreteMeasure.uniform(t)
    with pytest.raises(InvalidInputError):
        diag.radial_cdf_distance(mu, energy.weighted_disk())


def test_bergman_measure_trace_and_trend():
    cand = domains.disk(1.0, 60, 48)
    mu = DiscreteMeasure.from_reference(cand)
    w = AdmissibleWeight.quadratic()
    model = energy.weighted_disk()
    dists = []
    for n in (4, 8, 12):
        bm = diag.bergman_measure(mu, w, n)
        assert bm.masses.sum() == pytest.approx(1.0, abs=1e-12)
        dists.append(diag.radial_cdf_distance(bm, model))
    assert dists[0] > dists[1] > dists[2]


def test_bergman_measure_accepts_every_degree_the_pivot_check_accepts():
    # The uniform 401-node interval's masses miss 1 by 1.8e-9 at n = 13 and
    # 2.4e-9 at n = 14 (smallest pivot shares 6.2e-7 and 1.7e-7), which a
    # fixed 1e-9 refused; from n = 15 the pivot check refuses the Gram.
    mu = DiscreteMeasure.uniform(domains.interval(-1.0, 1.0, 401))
    zero = AdmissibleWeight.zero()
    for n in range(10, 15):
        bm = diag.bergman_measure(mu, zero, n)
        assert bm.masses.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DegenerateMeasureError, match="degree 15"):
        gram_matrix(mu, zero, 15)


def test_path_report_to_dict():
    mu = _random_measure(9)
    rep = diag.f_n_path(mu, AdmissibleWeight.zero(), _u_real, 1)
    d = rep.to_dict()
    assert d["n"] == 1
    assert len(d["t"]) == len(d["f"]) == len(d["f_prime_analytic"])
    assert len(d["second_differences"]) == len(d["t"]) - 2
