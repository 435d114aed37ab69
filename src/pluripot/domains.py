"""Finite candidate sets for compact K in C^d, and admissible weights.

All downstream searches and measures live on these discretizations.  Layouts
are deterministic: the same geometry spec always yields a bit-identical
point list.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError

DUPLICATE_TOL = 1e-12
MASS_TOL = 1e-12

GEOMETRY_TAGS = (
    "interval",
    "circle",
    "disk",
    "torus",
    "polydisk",
    "ball",
    "product",
    "custom",
)


def as_points(points) -> np.ndarray:
    """Points as an (M, d) complex array; a 0-d or 1-D input is points in C."""
    points = np.atleast_1d(np.asarray(points, dtype=complex))
    return points[:, None] if points.ndim == 1 else points


def check_masses(masses, m: int) -> np.ndarray:
    """Masses as floats: one per point, nonnegative, summing to 1 (MASS_TOL)."""
    w = np.asarray(masses, dtype=float)
    if w.shape != (m,):
        raise InvalidInputError(f"need one mass per point ({m}), got shape {w.shape}")
    if not np.all(w >= 0):
        raise InvalidInputError("masses must be nonnegative numbers")
    if not abs(w.sum() - 1.0) <= MASS_TOL:
        raise InvalidInputError(f"masses must sum to 1, got {w.sum()!r}")
    return w


def _check_distinct(points: np.ndarray) -> None:
    """Reject non-finite points and pairs within Euclidean distance 1e-12.

    The real (M, 2d) rows are sorted lexicographically.  Rows more than
    ``wide`` apart, the most rows that follow one row with its first
    coordinate within 1e-12, differ by more than 1e-12 there; closer ones are
    compared by squared distance, one pass per offset.  Correct at any finite
    magnitude; cost O(M * wide), with wide = 168 on the 13^3 cube.
    """
    flat = np.column_stack([points.real, points.imag])
    if not np.all(np.isfinite(flat)):
        raise InvalidInputError("candidate points must be finite")
    flat = flat[np.lexsort(flat.T[::-1])]
    ahead = np.searchsorted(flat[:, 0], flat[:, 0] + DUPLICATE_TOL, side="right")
    wide = int(np.max(ahead - np.arange(1, len(flat) + 1)))
    for off in range(1, wide + 1):
        diff = flat[off:] - flat[:-off]
        if np.any(np.einsum("ij,ij->i", diff, diff) <= DUPLICATE_TOL**2):
            raise InvalidInputError("candidate points contain duplicates within 1e-12")


@dataclass(frozen=True)
class CandidateSet:
    """Finite discretization of a compact set K in C^d.

    ``points`` has shape (M, d) complex; ``masses`` is None or a length-M
    probability vector (a reference measure riding on the same nodes).
    """

    dimension: int
    points: np.ndarray
    masses: np.ndarray | None
    geometry: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise InvalidInputError(
                f"points must be (M, {self.dimension}) complex, got {pts.shape}"
            )
        if pts.shape[0] == 0:
            raise InvalidInputError("candidate set must be nonempty")
        if self.geometry not in GEOMETRY_TAGS:
            raise InvalidInputError(f"unknown geometry tag {self.geometry!r}")
        _check_distinct(pts)
        object.__setattr__(self, "points", pts)
        if self.masses is not None:
            object.__setattr__(self, "masses", check_masses(self.masses, len(pts)))

    def __len__(self) -> int:
        return self.points.shape[0]


def circle(radius: float, m: int, center: complex = 0.0) -> CandidateSet:
    """m equispaced points on the circle |z - center| = radius, uniform masses."""
    if radius <= 0:
        raise InvalidInputError("radius must be positive")
    if m < 1:
        raise InvalidInputError("resolution must be >= 1")
    k = np.arange(m)
    pts = center + radius * np.exp(2j * np.pi * k / m)
    return CandidateSet(1, pts[:, None], np.full(m, 1.0 / m), "circle")


def interval(a: float, b: float, m: int, rule: str = "equispaced") -> CandidateSet:
    """m nodes on the real interval [a, b]; equispaced or Chebyshev extrema."""
    if not a < b:
        raise InvalidInputError("interval requires a < b")
    if m < 1:
        raise InvalidInputError("resolution must be >= 1")
    if rule == "equispaced":
        x = np.linspace(a, b, m)
    elif rule == "chebyshev":
        if m == 1:
            x = np.array([(a + b) / 2.0])
        else:
            k = np.arange(m)
            x = (a + b) / 2.0 + (b - a) / 2.0 * np.cos(k * np.pi / (m - 1))
    else:
        raise InvalidInputError(f"unknown interval rule {rule!r}")
    pts = x.astype(complex)[:, None]
    return CandidateSet(1, pts, np.full(m, 1.0 / m), "interval")


def disk(radius: float, m_r: int, m_theta: int, center: complex = 0.0) -> CandidateSet:
    """Polar tensor grid on the closed disk plus its center.

    Masses are normalized area elements (r dr dtheta), with the midpoint
    radii rule; they make the set usable as a reference area measure.
    """
    if radius <= 0:
        raise InvalidInputError("radius must be positive")
    if m_r < 1 or m_theta < 1:
        raise InvalidInputError("resolution must be >= 1")
    # Midpoint radii avoid a ring of duplicates at r=0; center added once.
    r = radius * (np.arange(1, m_r + 1) - 0.5) / m_r
    theta = 2 * np.pi * np.arange(m_theta) / m_theta
    zz = center + np.outer(r, np.exp(1j * theta)).ravel()
    pts = np.concatenate([[center], zz]).astype(complex)[:, None]
    area = np.outer(r, np.ones(m_theta)).ravel()  # ~ r dr dtheta weight
    masses = np.concatenate([[0.0], area])
    masses = masses / masses.sum()
    return CandidateSet(1, pts, masses, "disk")


def torus(d: int, m: int, radii: Sequence[float] | None = None) -> CandidateSet:
    """Tensor grid of m-th roots of unity per coordinate, uniform masses."""
    if d < 1:
        raise InvalidInputError("dimension must be >= 1")
    if m < 1:
        raise InvalidInputError("resolution must be >= 1")
    if radii is None:
        radii = [1.0] * d
    if len(radii) != d or any(r <= 0 for r in radii):
        raise InvalidInputError("torus needs d positive radii")
    axes = [radii[j] * np.exp(2j * np.pi * np.arange(m) / m) for j in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    mm = pts.shape[0]
    return CandidateSet(d, pts, np.full(mm, 1.0 / mm), "torus")


def product(sets: Sequence[CandidateSet]) -> CandidateSet:
    """Coordinate-wise product of candidate sets (masses multiply when all present)."""
    if len(sets) == 0:
        raise InvalidInputError("empty product")
    dims = [s.dimension for s in sets]
    idx_grids = np.meshgrid(*[np.arange(len(s)) for s in sets], indexing="ij")
    idx = [g.ravel() for g in idx_grids]
    pts = np.column_stack([s.points[i] for s, i in zip(sets, idx)])
    masses = None
    if all(s.masses is not None for s in sets):
        masses = np.ones(len(idx[0]))
        for s, i in zip(sets, idx):
            masses = masses * s.masses[i]
        masses = masses / masses.sum()
    return CandidateSet(sum(dims), pts, masses, "product")


def custom(points: np.ndarray, masses: np.ndarray | None = None) -> CandidateSet:
    pts = as_points(points)
    return CandidateSet(pts.shape[1], pts, masses, "custom")


def build_set(spec: dict) -> CandidateSet:
    """Construct a CandidateSet from a flat geometry descriptor.

    Recognized kinds: circle, interval, disk, torus. Example:
    ``{"kind": "circle", "radius": 1.0, "m": 201}``.
    """
    kind = spec.get("kind")
    if kind == "circle":
        return circle(spec.get("radius", 1.0), int(spec["m"]))
    if kind == "interval":
        return interval(
            spec.get("a", -1.0), spec.get("b", 1.0), int(spec["m"]),
            spec.get("rule", "equispaced"),
        )
    if kind == "disk":
        return disk(spec.get("radius", 1.0), int(spec["m_r"]), int(spec["m_theta"]))
    if kind == "torus":
        return torus(int(spec.get("d", 1)), int(spec["m"]))
    raise InvalidInputError(f"unknown geometry kind {kind!r}")


@dataclass(frozen=True)
class AdmissibleWeight:
    """The external field Q = -log w, evaluated pointwise on candidates.

    ``kind`` is one of zero, quadratic (|z|^2), radial (table in |z|),
    custom (callable on (M, d) complex arrays returning Q values).
    +inf values are allowed and mean w = 0 there.
    """

    kind: str
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    @staticmethod
    def zero() -> "AdmissibleWeight":
        return AdmissibleWeight("zero")

    @staticmethod
    def quadratic() -> "AdmissibleWeight":
        return AdmissibleWeight("quadratic")

    @staticmethod
    def radial_table(radii: np.ndarray, q_values: np.ndarray) -> "AdmissibleWeight":
        radii = np.asarray(radii, dtype=float)
        q_values = np.asarray(q_values, dtype=float)

        def _eval(points: np.ndarray) -> np.ndarray:
            rho = np.linalg.norm(points, axis=1)
            return np.interp(rho, radii, q_values)

        return AdmissibleWeight("radial", _eval)

    @staticmethod
    def custom(fn: Callable[[np.ndarray], np.ndarray]) -> "AdmissibleWeight":
        return AdmissibleWeight("custom", fn)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = as_points(points)
        if self.kind == "zero":
            return np.zeros(points.shape[0])
        if self.kind == "quadratic":
            return np.sum(np.abs(points) ** 2, axis=1)
        q = np.asarray(self.evaluator(points), dtype=float)
        if np.any(np.isnan(q)):
            raise InvalidInputError("weight evaluator produced NaN")
        return q


def weight_power(q: np.ndarray, k: float) -> np.ndarray:
    """The factor w^k = exp(-k Q) at each point; 0 where Q = +inf."""
    return np.where(np.isfinite(q), np.exp(-k * q), 0.0)


def check_nondegenerate(weight: AdmissibleWeight, cand: CandidateSet, n: int) -> None:
    """Require w > 0 at >= m_n points (finite-set stand-in for nonpluripolarity)."""
    from .basis import dimension_counts

    m_n = dimension_counts(n, cand.dimension)[0]
    finite = np.isfinite(weight(cand.points)).sum()
    if finite < m_n:
        raise InvalidInputError(
            f"weight is positive at only {finite} points; degree {n} needs >= {m_n}"
        )


def export_csv(cand: CandidateSet, path) -> None:
    """Columns re_j, im_j per coordinate (then mass), floats written by repr."""
    header = [f"{p}_{j}" for j in range(1, cand.dimension + 1) for p in ("re", "im")]
    vals = np.stack([cand.points.real, cand.points.imag], axis=2).reshape(len(cand), -1)
    if cand.masses is not None:
        header.append("mass")
        vals = np.column_stack([vals, cand.masses])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) for v in row] for row in vals.tolist())


def import_csv(path) -> CandidateSet:
    """Read an ``export_csv`` file; a malformed line raises InvalidInputError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        has_mass = header[-1:] == ["mass"]
        ncoord = len(header) - has_mass
        if ncoord == 0 or ncoord % 2:
            raise InvalidInputError(
                f"{path}: line 1: need re/im column pairs, got {ncoord} columns"
            )
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise InvalidInputError(f"{path}: line {reader.line_num}: "
                                        f"{len(row)} cells, header has {len(header)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise InvalidInputError(
                    f"{path}: line {reader.line_num}: non-numeric cell"
                ) from None
    vals = np.array(rows).reshape(-1, len(header))
    pts = vals[:, 0:ncoord:2] + 1j * vals[:, 1:ncoord:2]
    return CandidateSet(ncoord // 2, pts, vals[:, -1] if has_mass else None, "custom")
