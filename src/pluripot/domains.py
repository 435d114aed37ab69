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

    For each real coordinate of the (M, 2d) rows, ``wide`` is the most rows
    whose value there lies within 1e-12 above one row's.  The rows are sorted
    on the coordinate with the smallest ``wide``: rows further apart than
    that differ by more than 1e-12 there, and closer ones are compared by
    squared distance, one pass per offset.  Correct at any finite magnitude;
    cost O(M * wide), with wide = 168 on the 13^3 cube and 0 on a line.
    """
    flat = np.column_stack([points.real, points.imag])
    if not np.all(np.isfinite(flat)):
        raise InvalidInputError("candidate points must be finite")
    cols = np.sort(flat, axis=0)
    ahead = [np.searchsorted(col, col + DUPLICATE_TOL, side="right") for col in cols.T]
    wides = np.max(np.array(ahead) - np.arange(1, len(flat) + 1), axis=1)
    key = int(np.argmin(wides))
    flat = flat[np.argsort(flat[:, key])]
    for off in range(1, int(wides[key]) + 1):
        diff = flat[off:] - flat[:-off]
        if np.any(np.einsum("ij,ij->i", diff, diff) <= DUPLICATE_TOL**2):
            raise InvalidInputError("candidate points contain duplicates within 1e-12")


@dataclass(frozen=True)
class CandidateSet:
    """Finite discretization of a compact set K in C^d.

    ``points`` has shape (M, d) complex with d >= 1; ``masses`` is None or a
    length-M probability vector (a reference measure riding on the same nodes).
    """

    points: np.ndarray
    masses: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] == 0:
            raise InvalidInputError(f"points must be (M, d) complex, got {pts.shape}")
        if pts.shape[0] == 0:
            raise InvalidInputError("candidate set must be nonempty")
        _check_distinct(pts)
        object.__setattr__(self, "points", pts)
        if self.masses is not None:
            object.__setattr__(self, "masses", check_masses(self.masses, len(pts)))

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def circle(radius: float, m: int) -> CandidateSet:
    """m equispaced points on the circle |z| = radius, uniform masses."""
    if radius <= 0:
        raise InvalidInputError("radius must be positive")
    if m < 1:
        raise InvalidInputError("resolution must be >= 1")
    k = np.arange(m)
    pts = radius * np.exp(2j * np.pi * k / m)
    return CandidateSet(pts[:, None], np.full(m, 1.0 / m))


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
    return CandidateSet(pts, np.full(m, 1.0 / m))


def disk(radius: float, m_r: int, m_theta: int) -> CandidateSet:
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
    zz = np.outer(r, np.exp(1j * theta)).ravel()
    pts = np.concatenate([[0.0], zz]).astype(complex)[:, None]
    area = np.outer(r, np.ones(m_theta)).ravel()  # ~ r dr dtheta weight
    masses = np.concatenate([[0.0], area])
    masses = masses / masses.sum()
    return CandidateSet(pts, masses)


def torus(d: int, m: int) -> CandidateSet:
    """Tensor grid of m-th roots of unity per coordinate, uniform masses."""
    if d < 1:
        raise InvalidInputError("dimension must be >= 1")
    if m < 1:
        raise InvalidInputError("resolution must be >= 1")
    grids = np.meshgrid(*[np.exp(2j * np.pi * np.arange(m) / m)] * d, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    mm = pts.shape[0]
    return CandidateSet(pts, np.full(mm, 1.0 / mm))


def product(sets: Sequence[CandidateSet]) -> CandidateSet:
    """Coordinate-wise product of candidate sets (masses multiply when all present)."""
    if len(sets) == 0:
        raise InvalidInputError("empty product")
    idx_grids = np.meshgrid(*[np.arange(len(s)) for s in sets], indexing="ij")
    idx = [g.ravel() for g in idx_grids]
    pts = np.column_stack([s.points[i] for s, i in zip(sets, idx)])
    masses = None
    if all(s.masses is not None for s in sets):
        masses = np.ones(len(idx[0]))
        for s, i in zip(sets, idx):
            masses = masses * s.masses[i]
        masses = masses / masses.sum()
    return CandidateSet(pts, masses)


def custom(points: np.ndarray, masses: np.ndarray | None = None) -> CandidateSet:
    return CandidateSet(as_points(points), masses)


def build_set(spec: dict) -> CandidateSet:
    """Construct a CandidateSet from a flat geometry descriptor.

    Recognized kinds: circle, interval, disk, torus. Example:
    ``{"kind": "circle", "radius": 1.0, "m": 201}``.
    """
    kind = spec.get("kind")
    if kind == "circle":
        return circle(spec.get("radius", 1.0), spec["m"])
    if kind == "interval":
        return interval(
            spec.get("a", -1.0), spec.get("b", 1.0), spec["m"],
            spec.get("rule", "equispaced"),
        )
    if kind == "disk":
        return disk(spec.get("radius", 1.0), spec["m_r"], spec["m_theta"])
    if kind == "torus":
        return torus(spec.get("d", 1), spec["m"])
    raise InvalidInputError(f"unknown geometry kind {kind!r}")


@dataclass(frozen=True)
class AdmissibleWeight:
    """The external field Q = -log w, evaluated pointwise on candidates.

    ``kind`` is one of zero, quadratic (|z|^2), custom (callable on (M, d)
    complex arrays returning Q values).
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
    return CandidateSet(pts, vals[:, -1] if has_mass else None)
