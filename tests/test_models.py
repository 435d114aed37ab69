"""The closed-form model table: each record against its own measure."""

import math

import numpy as np
import pytest

from pluripot import energy
from pluripot.energy import disk, torus, weighted_disk
from pluripot.errors import UnsupportedModelError

TWO_PI = 2 * math.pi
# Each integral below is exact for the quadrature of the model's measure
# (a polynomial in r of degree <= 13 against 200 Gauss-Legendre nodes per
# panel, or a function constant on the circle), so the records and the
# quadrature agree to rounding.
RECORD_TOL = 1e-12


def _integral(model, f, breaks=()):
    """Integral of f against the model's mass-1 measure, by its quadrature."""
    return model.known("quadrature")(f, breaks) / TWO_PI


@pytest.mark.parametrize("model", [disk(0.6), disk(1.3), weighted_disk()], ids=repr)
def test_record_agrees_with_the_quadrature_of_its_measure(model):
    moment = model.known("moment")
    for k in range(7):
        by_quadrature = _integral(model, lambda z: np.abs(z[:, 0]) ** (2 * k))
        assert moment(k) == pytest.approx(by_quadrature, rel=RECORD_TOL, abs=RECORD_TOL), k
    q = model.known("weight")()
    assert energy.weight_energy_integral(model) == pytest.approx(
        _integral(model, q), abs=RECORD_TOL
    )
    # The radii avoid the disks' circles, where |z| of a node rounds to
    # either side of r; each radius splits the area quadrature's panels.
    for rho in (0.1, 0.3, 0.5, 0.7, 1 / math.sqrt(2), 0.99, 1.2, 1.4, 2.0):
        inside = _integral(model, lambda z: (np.abs(z[:, 0]) <= rho).astype(float), (rho,))
        assert energy.equilibrium_cdf(model, rho) == pytest.approx(
            inside, abs=RECORD_TOL
        ), rho


@pytest.mark.parametrize(
    "read, field",
    [
        (lambda: energy.robin_constant(torus(2)), "robin"),
        (lambda: energy.equilibrium_cdf(torus(1), [0.5]), "cdf"),
        (lambda: energy.weight_energy_integral(torus(3)), "q_integral"),
        (lambda: energy.rumely_check(torus(1)), "candidates"),
        (lambda: energy.energy(weighted_disk(), torus(1)), "torus_radius"),
    ],
    ids=["robin", "cdf", "q_integral", "candidates", "torus_radius"],
)
def test_a_missing_field_is_refused_by_name(read, field):
    with pytest.raises(UnsupportedModelError, match=rf"no closed-form {field}$"):
        read()


@pytest.mark.parametrize("r", [0.25, 0.5, 1.7])
def test_disk_energy_on_its_circle_matches_the_quadrature(r):
    # disk(r) has a Shilov circle, so its energy against torus(1) takes the
    # torus route; against disk(1.0) it takes the circle quadratures.
    by_torus = energy.energy(disk(r), torus(1))
    assert by_torus == pytest.approx(energy.energy(disk(r), disk(1.0)), rel=1e-14)
    assert by_torus == pytest.approx(-TWO_PI * math.log(r), rel=1e-14)


def test_models_compare_on_their_parameters():
    assert disk(0.5) == disk(0.5) and hash(disk(0.5)) == hash(disk(0.5))
    assert disk(0.5) != disk(0.25)
    assert torus(2) == torus(2) != torus(3)
    assert energy.energy(weighted_disk(), weighted_disk()) == 0.0
