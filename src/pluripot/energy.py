"""Closed-form extremal models and relative Monge-Ampere energy.

No PDE is solved here: energies are quadratures of (u - v) against the
closed-form equilibrium-type measures of a small model table.  Internal
convention: every top-degree measure carries total mass (2pi)^d; the
mass-1 normalization appears only inside dw_vs_deltaw_check, which applies
the conversion explicitly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domains import AdmissibleWeight, CandidateSet, as_points
from .domains import circle as circle_set, disk as disk_set
from .errors import InvalidInputError, UnsupportedModelError
from .fekete import diameter_sequence, extrapolate_diameter

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# Robin constant of the quadratic-weight unit disk: 1/2 + (1/2) log 2.
_WDISK_RHO = 0.5 + 0.5 * math.log(2.0)
# Quadrature resolution of the d = 1 model integrals: the points of a circle
# average, and the Gauss-Legendre radii (and angles, for energies) of a
# weighted-disk area integral.
QUAD_NODES = 200


@dataclass(frozen=True)
class ExtremalModel:
    """A set/weight pair whose extremal function is known in closed form.

    kinds: ``disk`` (|z| <= r, d=1, no weight), ``weighted_disk`` (unit
    disk with Q = |z|^2, d=1), ``torus`` (unit torus in C^d), ``polydisk``
    (equal radius r <= 1 in C^d).
    """

    kind: str
    radius: float = 1.0
    dimension: int = 1

    def __post_init__(self):
        if self.kind in ("disk", "weighted_disk") and self.dimension != 1:
            raise InvalidInputError(f"{self.kind} model is one-dimensional")
        if self.kind in ("disk", "polydisk") and not 0 < self.radius < math.inf:
            raise InvalidInputError("radius must be finite and positive")
        if self.kind == "polydisk" and self.radius > 1.0:
            raise UnsupportedModelError(
                "polydisk energies are tabulated for radius <= 1 only"
            )
        if self.kind not in ("disk", "weighted_disk", "torus", "polydisk"):
            raise InvalidInputError(f"unknown model kind {self.kind!r}")


def disk(radius: float = 1.0) -> ExtremalModel:
    return ExtremalModel("disk", radius=radius)


def weighted_disk() -> ExtremalModel:
    return ExtremalModel("weighted_disk")


def torus(dimension: int = 1) -> ExtremalModel:
    return ExtremalModel("torus", dimension=dimension)


def polydisk(radius: float, dimension: int) -> ExtremalModel:
    return ExtremalModel("polydisk", radius=radius, dimension=dimension)


def eval_extremal(model: ExtremalModel, z: np.ndarray) -> np.ndarray:
    """The extremal function V of the model at points z (shape (M, d))."""
    z = as_points(z)
    if model.kind == "disk":
        rho = np.abs(z[:, 0])
        return np.where(rho > model.radius, np.log(
            np.maximum(rho, 1e-300) / model.radius), 0.0)
    if model.kind == "weighted_disk":
        rho = np.abs(z[:, 0])
        inside = rho <= _SQRT_HALF
        with np.errstate(divide="ignore"):
            outer = np.log(np.maximum(rho, 1e-300)) + _WDISK_RHO
        return np.where(inside, rho**2, outer)
    # torus / polydisk
    r = 1.0 if model.kind == "torus" else model.radius
    rho = np.abs(z)
    return np.max(np.where(rho > r, np.log(np.maximum(rho, 1e-300) / r), 0.0), axis=1)


def robin_constant(model: ExtremalModel) -> float:
    """Logarithmic growth correction at infinity; d = 1 models only."""
    if model.kind == "disk":
        return -math.log(model.radius)
    if model.kind == "weighted_disk":
        return _WDISK_RHO
    raise UnsupportedModelError(
        "Robin constant is a number only for d = 1 models"
    )


def _circle_average(f, radius: float) -> float:
    """(2pi/m) * sum over m = QUAD_NODES equispaced angles; spectrally exact here."""
    theta = 2 * np.pi * np.arange(QUAD_NODES) / QUAD_NODES
    pts = (radius * np.exp(1j * theta))[:, None]
    return float(np.sum(f(pts)) * (2 * np.pi / QUAD_NODES))


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """QUAD_NODES-point Gauss-Legendre rule on [-1, 1], computed on first use."""
    return np.polynomial.legendre.leggauss(QUAD_NODES)


def _wdisk_area_integral(f, m_theta: int, breaks=()) -> float:
    """Integral of f against 4 r dr dtheta on |z| <= 1/sqrt(2).

    Gauss-Legendre in r (QUAD_NODES per panel) x trapezoid in theta.  The
    radial range is split at ``breaks`` (kink radii of the integrand) so each
    panel is smooth.
    """
    nodes, weights = _gauss_legendre()
    edges = [0.0] + sorted(b for b in breaks if 0.0 < b < _SQRT_HALF) + [_SQRT_HALF]
    theta = 2 * np.pi * np.arange(m_theta) / m_theta
    rot = np.exp(1j * theta)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        r = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        wr = 0.5 * (b - a) * weights
        zz = (r[:, None] * rot[None, :]).ravel()[:, None]
        vals = f(zz).reshape(len(r), m_theta)
        ang = vals.sum(axis=1) * (2 * np.pi / m_theta)
        total += float(np.sum(4.0 * r * ang * wr))
    return total


def _kink_radii(model: ExtremalModel):
    return (model.radius,) if model.kind == "disk" else (_SQRT_HALF,)


def _measure_integral(model: ExtremalModel, f, breaks=()) -> float:
    """Integral of f against the model's top-degree measure (mass 2pi, d=1)."""
    if model.kind == "disk":
        return _circle_average(f, model.radius)
    if model.kind == "weighted_disk":
        return _wdisk_area_integral(f, QUAD_NODES, breaks)
    raise UnsupportedModelError(model.kind)


def energy(u: ExtremalModel, v: ExtremalModel) -> float:
    """Relative energy of u with respect to v over the supported pair table."""
    if u == v:
        return 0.0
    d1_kinds = ("disk", "weighted_disk")
    if u.kind in d1_kinds and v.kind in d1_kinds:
        diff = lambda z: eval_extremal(u, z) - eval_extremal(v, z)
        return _measure_integral(u, diff, _kink_radii(v)) + _measure_integral(
            v, diff, _kink_radii(u)
        )
    multi = ("torus", "polydisk")
    if u.kind in multi and v.kind in multi:
        if u.dimension != v.dimension:
            raise UnsupportedModelError("dimension mismatch")
        d = u.dimension
        ru = 1.0 if u.kind == "torus" else u.radius
        rv = 1.0 if v.kind == "torus" else v.radius
        total = 0.0
        # Mixed measure j: Haar (mass (2pi)^d) on the torus with j coords
        # at radius ru and d-j at rv; u - v is constant there.
        for j in range(d + 1):
            radii = np.array([ru] * j + [rv] * (d - j), dtype=complex)
            z = radii[None, :]
            du = float(eval_extremal(u, z)[0] - eval_extremal(v, z)[0])
            total += du * (2 * math.pi) ** d
        return total
    raise UnsupportedModelError(
        f"unsupported model pair ({u.kind}, {v.kind})"
    )


def equilibrium_cdf(model: ExtremalModel, rho: np.ndarray) -> np.ndarray:
    """Radial CDF of the model's normalized equilibrium measure (d = 1)."""
    rho = np.asarray(rho, dtype=float)
    if model.kind == "disk":
        return (rho >= model.radius).astype(float)
    if model.kind == "weighted_disk":
        return np.clip(2.0 * rho**2, 0.0, 1.0)
    raise UnsupportedModelError("radial CDF is tabulated for d = 1 models")


def weight_energy_integral(model: ExtremalModel) -> float:
    """Integral of Q against the mass-1 equilibrium measure of the model."""
    if model.kind == "disk":
        return 0.0
    if model.kind == "weighted_disk":
        q = lambda z: np.abs(z[:, 0]) ** 2
        return _wdisk_area_integral(q, 8) / (2 * math.pi)
    raise UnsupportedModelError(model.kind)


def default_candidates(model: ExtremalModel) -> CandidateSet:
    """A reasonable discretization of the model's set for Fekete searches."""
    if model.kind == "disk":
        return circle_set(model.radius, 201)
    if model.kind == "weighted_disk":
        return disk_set(1.0, 50, 160)
    raise UnsupportedModelError(model.kind)


def model_weight(model: ExtremalModel) -> AdmissibleWeight:
    if model.kind == "weighted_disk":
        return AdmissibleWeight.quadratic()
    return AdmissibleWeight.zero()


def rumely_check(
    model: ExtremalModel,
    cand: CandidateSet | None = None,
    n_max: int = 20,
) -> dict:
    """Compare -log delta^w from Fekete searches with the model energy."""
    if model.kind not in ("disk", "weighted_disk"):
        raise UnsupportedModelError("rumely_check needs a d = 1 model")
    if cand is None:
        cand = default_candidates(model)
    weight = model_weight(model)
    rhs = energy(model, disk(1.0)) / (2 * math.pi)
    seq = diameter_sequence(cand, weight, n_max)
    delta_hat = extrapolate_diameter(seq)
    lhs = -math.log(delta_hat)
    return {
        "model": model.kind,
        "n_max": n_max,
        "lhs": lhs,
        "rhs": rhs,
        "gap": abs(lhs - rhs),
        "delta_estimate": delta_hat,
        "delta_exact": math.exp(-rhs),
        "delta_sequence": [s["delta_n"] for s in seq],
    }


def dw_vs_deltaw_check(model: ExtremalModel) -> dict:
    """Closed-form check of delta^w = exp(-int Q dmu) * d^w (d = 1).

    Uses the mass-1 normalization for the Q integral; d^w is the capacity
    of the sublevel set of the Robin function, a disk of radius e^{-rho}.
    """
    if model.kind not in ("disk", "weighted_disk"):
        raise UnsupportedModelError("dw_vs_deltaw_check needs a d = 1 model")
    rho = robin_constant(model)
    d_w = math.exp(-rho)
    q_int = weight_energy_integral(model)
    delta_product = math.exp(-q_int) * d_w
    delta_energy = math.exp(-energy(model, disk(1.0)) / (2 * math.pi))
    return {
        "model": model.kind,
        "robin": rho,
        "d_w": d_w,
        "q_integral": q_int,
        "delta_from_product": delta_product,
        "delta_from_energy": delta_energy,
        "gap": abs(delta_product - delta_energy),
    }
