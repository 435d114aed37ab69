"""Closed-form extremal models and relative Monge-Ampere energy.

No PDE is solved here: energies are quadratures of (u - v) against the
closed-form equilibrium-type measures of the model table ``MODELS``, one
``ClosedForm`` record per kind of model.  The functions here read its
fields, and none branches on a model's kind, so a new model is one record.
Every top-degree measure carries total mass (2pi)^d.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

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
class ClosedForm:
    """What one kind of model has in closed form; None where it has nothing.

    Each function field takes the model, then the arguments in its comment,
    which also names the function that reads it.  mu is the mass-1
    equilibrium measure, and the quadrature's measure has mass 2pi.
    """

    extremal: Callable  # eval_extremal: (z) -> V at points z of shape (M, d)
    one_dimensional: bool = False
    max_radius: float | None = None  # largest radius supported; None: no radius
    robin: Callable | None = None  # robin_constant: () -> Robin constant
    q_integral: Callable | None = None  # weight_energy_integral: () -> int Q dmu
    moment: Callable | None = None  # weak_star_distance: (k) -> int |z^alpha|^2 dmu, |alpha| = k
    cdf: Callable | None = None  # equilibrium_cdf: (rho) -> mu(|z| <= rho)
    kinks: Callable | None = None  # energy: () -> radii where V kinks
    quadrature: Callable | None = None  # energy, d = 1: (f, breaks) -> int f, split at breaks
    torus_radius: Callable | None = None  # energy, d >= 2: () -> radius of the Shilov torus
    candidates: Callable | None = None  # rumely_check: () -> a set for Fekete searches
    weight: Callable = lambda model: AdmissibleWeight.zero()  # rumely_check: () -> the weight


@dataclass(frozen=True)
class ExtremalModel:
    """A set/weight pair whose extremal function is known in closed form.

    kinds: ``disk`` (|z| <= r, d=1, no weight), ``weighted_disk`` (unit
    disk with Q = |z|^2, d=1), ``torus`` (unit torus in C^d), ``polydisk``
    (equal radius r <= 1 in C^d).  ``MODELS[kind]`` holds what the kind
    has in closed form.
    """

    kind: str
    radius: float = 1.0
    dimension: int = 1

    def __post_init__(self):
        form = MODELS.get(self.kind) if isinstance(self.kind, str) else None
        if form is None:
            raise InvalidInputError(f"unknown model kind {self.kind!r}")
        if form.one_dimensional and self.dimension != 1:
            raise InvalidInputError(f"{self.kind} model is one-dimensional")
        if form.max_radius is not None and not 0 < self.radius < math.inf:
            raise InvalidInputError("radius must be finite and positive")
        if form.max_radius is not None and self.radius > form.max_radius:
            raise UnsupportedModelError(
                f"{self.kind} energies are tabulated for radius <= {form.max_radius:g} only"
            )

    def has(self, field: str) -> bool:
        """Whether the model's kind has the ClosedForm ``field``."""
        return getattr(MODELS[self.kind], field) is not None

    def known(self, field: str) -> Callable:
        """The model's ClosedForm ``field`` as a function of the other
        arguments; UnsupportedModelError, naming the field, where it is None."""
        found = getattr(MODELS[self.kind], field)
        if found is None:
            raise UnsupportedModelError(f"the {self.kind} model has no closed-form {field}")
        return functools.partial(found, self)


def disk(radius: float = 1.0) -> ExtremalModel:
    return ExtremalModel("disk", radius=radius)


def weighted_disk() -> ExtremalModel:
    return ExtremalModel("weighted_disk")


def torus(dimension: int = 1) -> ExtremalModel:
    return ExtremalModel("torus", dimension=dimension)


def polydisk(radius: float, dimension: int) -> ExtremalModel:
    return ExtremalModel("polydisk", radius=radius, dimension=dimension)


def _log_plus(model: ExtremalModel, z: np.ndarray) -> np.ndarray:
    """V of a polydisk: max over coordinates of log+ (|z_j| / r), r its torus radius."""
    r = model.known("torus_radius")()
    rho = np.abs(z)
    return np.max(np.where(rho > r, np.log(np.maximum(rho, 1e-300) / r), 0.0), axis=1)


def _torus_moment(model: ExtremalModel, degree: int) -> float:
    """Haar measure on a torus: mixed moments vanish."""
    return model.known("torus_radius")() ** (2 * degree)


def _wdisk_extremal(model: ExtremalModel, z: np.ndarray) -> np.ndarray:
    """V of the quadratic-weight disk: |z|^2 up to 1/sqrt(2), log |z| + rho past it."""
    rho = np.abs(z[:, 0])
    outer = np.log(np.maximum(rho, 1e-300)) + _WDISK_RHO
    return np.where(rho <= _SQRT_HALF, rho**2, outer)


def _circle_average(model: ExtremalModel, f, breaks=()) -> float:
    """(2pi/m) * sum over m = QUAD_NODES equispaced angles of the model's
    Shilov circle; spectrally exact here, so ``breaks`` go unused."""
    theta = 2 * np.pi * np.arange(QUAD_NODES) / QUAD_NODES
    pts = (model.known("torus_radius")() * np.exp(1j * theta))[:, None]
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


MODELS = {
    "disk": ClosedForm(
        extremal=_log_plus,
        one_dimensional=True,
        max_radius=math.inf,
        robin=lambda m: -math.log(m.radius),
        q_integral=lambda m: 0.0,
        moment=_torus_moment,
        cdf=lambda m, rho: (rho >= m.radius).astype(float),
        kinks=lambda m: (m.radius,),
        quadrature=_circle_average,
        torus_radius=lambda m: m.radius,
        candidates=lambda m: circle_set(m.radius, 201),
    ),
    "weighted_disk": ClosedForm(
        extremal=_wdisk_extremal,
        one_dimensional=True,
        robin=lambda m: _WDISK_RHO,
        q_integral=lambda m: _wdisk_area_integral(lambda z: np.abs(z[:, 0]) ** 2, 8) / (2 * np.pi),
        moment=lambda m, k: 2.0 ** (-k) / (k + 1),
        cdf=lambda m, rho: np.clip(2.0 * rho**2, 0.0, 1.0),
        kinks=lambda m: (_SQRT_HALF,),
        quadrature=lambda m, f, breaks: _wdisk_area_integral(f, QUAD_NODES, breaks),
        candidates=lambda m: disk_set(1.0, 50, 160),
        weight=lambda m: AdmissibleWeight.quadratic(),
    ),
    "torus": ClosedForm(extremal=_log_plus, moment=_torus_moment, torus_radius=lambda m: 1.0),
    "polydisk": ClosedForm(
        extremal=_log_plus, max_radius=1.0, moment=_torus_moment, torus_radius=lambda m: m.radius
    ),
}


def eval_extremal(model: ExtremalModel, z: np.ndarray) -> np.ndarray:
    """The extremal function V of the model at points z (shape (M, d))."""
    return model.known("extremal")(as_points(z))


def robin_constant(model: ExtremalModel) -> float:
    """Logarithmic growth correction at infinity; d = 1 models only."""
    return model.known("robin")()


def energy(u: ExtremalModel, v: ExtremalModel) -> float:
    """Relative energy of u with respect to v: by the d = 1 quadratures where
    both models have one, else on the mixed Shilov tori."""
    if u == v:
        return 0.0
    if u.has("quadrature") and v.has("quadrature"):
        diff = lambda z: eval_extremal(u, z) - eval_extremal(v, z)
        u_kinks, v_kinks = u.known("kinks")(), v.known("kinks")()
        return u.known("quadrature")(diff, v_kinks) + v.known("quadrature")(diff, u_kinks)
    ru, rv = u.known("torus_radius")(), v.known("torus_radius")()
    if u.dimension != v.dimension:
        raise UnsupportedModelError("dimension mismatch")
    d = u.dimension
    # Row j: the torus with j coords at radius ru and d-j at rv, which
    # carries a mixed measure, Haar of mass (2pi)^d; u - v is constant there.
    z = np.array([[ru] * j + [rv] * (d - j) for j in range(d + 1)], dtype=complex)
    total = 0.0
    for du in eval_extremal(u, z) - eval_extremal(v, z):
        total += float(du) * (2 * math.pi) ** d
    return total


def equilibrium_cdf(model: ExtremalModel, rho: np.ndarray) -> np.ndarray:
    """Radial CDF of the model's normalized equilibrium measure (d = 1)."""
    return model.known("cdf")(np.asarray(rho, dtype=float))


def weight_energy_integral(model: ExtremalModel) -> float:
    """Integral of Q against the mass-1 equilibrium measure of the model."""
    return model.known("q_integral")()


def rumely_check(
    model: ExtremalModel,
    cand: CandidateSet | None = None,
    n_max: int = 20,
) -> dict:
    """Compare -log delta^w from Fekete searches with the model energy."""
    if cand is None:
        cand = model.known("candidates")()
    weight = model.known("weight")()
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
