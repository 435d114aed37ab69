"""Log-domain Vandermonde determinants (plain, weighted, homogeneous).

Raw determinants of monomial Vandermonde matrices overflow binary64 by
degree ~10, so every determinant here is the sum of the log column norms
and the log-magnitudes of the R diagonal from a column-pivoted QR
factorization of the unit-norm columns.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
import scipy

from .basis import degree_block, dimension_counts, enumerate_basis
from .domains import AdmissibleWeight, as_points
from .errors import InvalidInputError

# R-diagonal entries below max|diag| * this factor mean numerical rank loss.
_RANK_TOL = 1e-13


@dataclass(frozen=True)
class LogDet:
    """log |det| of a Vandermonde-type matrix; -inf encoded via is_zero."""

    log_abs: float
    is_zero: bool
    condition: float

    @property
    def value(self) -> float:
        return -math.inf if self.is_zero else self.log_abs


def _scipy_module(subpackage: str, name: str):
    """scipy.<subpackage>.<name> from its extension file, without running the
    subpackage's slow ``__init__``, and kept in sys.modules for a later import
    to reuse; without such a file, the normal import.
    """
    fullname = f"scipy.{subpackage}.{name}"
    if fullname not in sys.modules:
        path = os.path.join(scipy.__path__[0], *subpackage.split("."))
        spec = FileFinder(path, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(fullname)
        if spec is None:
            return importlib.import_module(fullname)
        sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[fullname])
    return sys.modules[fullname]


def _lapack(name: str, *arrays):
    """scipy's LAPACK or BLAS routine ``name``, z-prefixed when an array is
    complex, else d: scipy.linalg's pick for float64 and complex128 arrays.
    """
    routine = ("z" if any(np.iscomplexobj(a) for a in arrays) else "d") + name
    found = getattr(_scipy_module("linalg", "_flapack"), routine, None)
    return found or getattr(_scipy_module("linalg", "_fblas"), routine)


def monomial_values(indices, points: np.ndarray) -> np.ndarray:
    """Matrix [e_i(z_j)] of monomials (rows) at points (columns).

    Each coordinate's powers come from one cumulative-product table, and the
    rows are multiplied up one coordinate at a time, so no (N, d, M) array is
    formed.  The result is real when the points have no imaginary part.
    """
    points = as_points(points)
    if not points.imag.any():
        points = points.real
    alphas = np.asarray(indices, dtype=int).reshape(len(indices), points.shape[1])
    m = len(points)
    out = np.ones((len(alphas), m), dtype=points.dtype)
    for exponents, z in zip(alphas.T, points.T):
        top = exponents.max(initial=0)
        if top > 0:
            table = np.empty((top + 1, m), dtype=points.dtype)
            table[0] = 1.0
            np.cumprod(np.broadcast_to(z, (top, m)), axis=0, out=table[1:])
            out *= table[exponents]
    return out


def pivoted_qr(mat: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Column-pivoted QR, mat[:, piv] = Q R, by LAPACK geqp3: (factor, piv).

    The factor is geqp3's own: R on and above its diagonal, Householder
    vectors below it.  ``piv`` is 0-based.  The routine, and the workspace
    geqp3 reports for mat's shape, are ``scipy.linalg.qr``'s, so R and piv
    are that function's bit for bit.  ``overwrite`` lets LAPACK factor a
    Fortran-ordered ``mat`` in place.
    """
    if not np.isfinite(mat).all():
        raise InvalidInputError("pivoted QR of a matrix with inf or NaN entries")
    geqp3 = _lapack("geqp3", mat)
    # The query reads only mat's shape, so it may take mat in place.
    lwork = int(geqp3(mat, lwork=-1, overwrite_a=True)[-2][0].real)
    factor, piv, _, _, _ = geqp3(mat, lwork=lwork, overwrite_a=overwrite)
    piv -= 1
    return factor, piv


def _logdet_qr(mat: np.ndarray) -> LogDet:
    if mat.shape[0] != mat.shape[1]:
        raise InvalidInputError("square matrix required")
    if mat.shape[0] == 0:
        return LogDet(0.0, False, 1.0)
    # Unit-norm columns keep the rank rule blind to column scale (weights
    # spanning many orders of magnitude); |det| scales back exactly.
    norms = np.linalg.norm(mat, axis=0)
    if not norms.all():
        return LogDet(-math.inf, True, math.inf)
    factor, _ = pivoted_qr(np.divide(mat, norms, order="F"), overwrite=True)
    diag = np.abs(np.diag(factor))
    dmax = diag.max()
    if np.any(diag <= _RANK_TOL * dmax):
        return LogDet(-math.inf, True, math.inf)
    cond = dmax / diag.min()
    log_abs = float(np.sum(np.log(diag)) + np.sum(np.log(norms)))
    return LogDet(log_abs, False, float(cond))


def _log_abs_det(points: np.ndarray, indices, what: str) -> LogDet:
    """log |det [e_alpha(z_j)]| over ``indices``, one point per index."""
    if len(points) != len(indices):
        raise InvalidInputError(
            f"{what} in dimension {points.shape[1]} needs {len(indices)}"
            f" points, got {len(points)}"
        )
    return _logdet_qr(monomial_values(indices, points))


def log_abs_vdm(points: np.ndarray, n: int) -> LogDet:
    """log |VDM| for N = m_n points in C^d at degree n."""
    points = as_points(points)
    return _log_abs_det(points, enumerate_basis(n, points.shape[1]), f"degree {n}")


def log_abs_weighted_vdm(
    points: np.ndarray, n: int, weight: AdmissibleWeight
) -> LogDet:
    """log |W| = log |VDM| - n * sum_i Q(z_i)."""
    points = as_points(points)
    q = weight(points)
    if not np.all(np.isfinite(q)):
        return LogDet(-math.inf, True, math.inf)
    unweighted = log_abs_vdm(points, n)
    if unweighted.is_zero:
        return unweighted
    return LogDet(
        unweighted.log_abs - n * float(q.sum()), False, unweighted.condition
    )


def diameter_exponent(n: int, d: int) -> float:
    """(d+1)/(d*n*N), the root that normalizes log |W| to a length scale."""
    m_n = dimension_counts(n, d)[0]
    return (d + 1) / (d * n * m_n)


def log_abs_homogeneous_vdm(points: np.ndarray, n: int) -> LogDet:
    """log |det| over the degree-n monomials at h_n points in C^d."""
    points = as_points(points)
    block = degree_block(n, points.shape[1])
    return _log_abs_det(points, block, f"homogeneous degree {n}")
