"""Log-domain Vandermonde determinants against brute-force oracles."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pluripot import vdm
from pluripot.basis import degree_block
from pluripot.domains import AdmissibleWeight
from pluripot.errors import InvalidInputError


def _pairwise_logdet(z: np.ndarray) -> float:
    """d=1 oracle: |VDM| = prod_{i<j} |z_j - z_i|."""
    total = 0.0
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            total += math.log(abs(z[j] - z[i]))
    return total


def test_monomial_values_shape_and_content():
    pts = np.array([[2.0 + 0j, 3.0 + 0j], [1.0 + 1j, 0.0 + 0j]])
    mat = vdm.monomial_values([(0, 0), (1, 0), (0, 1), (1, 1)], pts)
    assert mat.shape == (4, 2)
    assert np.allclose(mat[:, 0], [1.0, 2.0, 3.0, 6.0])
    assert np.allclose(mat[:, 1], [1.0, 1.0 + 1j, 0.0, 0.0])


@given(st.integers(1, 3), st.integers(0, 8), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_monomial_values_match_naive_powers(d, m, real, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(m, d))
    if not real:
        pts = pts + 1j * rng.normal(size=(m, d))
    indices = data.draw(st.lists(
        st.tuples(*[st.integers(0, 9)] * d), max_size=12
    ))
    mat = vdm.monomial_values(indices, pts)
    assert mat.shape == (len(indices), m)
    assert (mat.dtype.kind == "f") == (not np.any(np.imag(pts)))
    for row, alpha in zip(mat, indices):
        naive = np.prod(pts.astype(complex) ** np.array(alpha), axis=1)
        assert np.allclose(row, naive, rtol=1e-13, atol=0.0)


def test_vdm_matches_pairwise_product_d1():
    rng = np.random.default_rng(7)
    for n in (2, 4, 7):
        z = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        ld = vdm.log_abs_vdm(z, n)
        assert not ld.is_zero
        assert math.isclose(ld.log_abs, _pairwise_logdet(z), rel_tol=1e-10)


def test_vdm_large_degree_no_overflow():
    # 31 points on circle(2): |VDM| = 31^{31/2} * 2^{C(31,2)} ~ 10^163
    z = 2.0 * np.exp(2j * np.pi * np.arange(31) / 31)
    ld = vdm.log_abs_vdm(z, 30)
    oracle = 15.5 * math.log(31.0) + math.comb(31, 2) * math.log(2.0)
    assert math.isclose(ld.log_abs, oracle, rel_tol=1e-9)
    assert math.isclose(ld.log_abs, _pairwise_logdet(z), rel_tol=1e-9)


def test_vdm_zero_on_coincident_points():
    z = np.array([1.0, 2.0, 1.0 + 1e-16j])
    ld = vdm.log_abs_vdm(z, 2)
    assert ld.is_zero and ld.value == -math.inf


def test_vdm_point_count_checked():
    with pytest.raises(InvalidInputError):
        vdm.log_abs_vdm(np.array([1.0, 2.0]), 2)


def test_weighted_vdm_formula():
    rng = np.random.default_rng(3)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    n = 3
    w = AdmissibleWeight.quadratic()
    ld = vdm.log_abs_weighted_vdm(z, n, w)
    expected = _pairwise_logdet(z) - n * float(np.sum(np.abs(z) ** 2))
    assert math.isclose(ld.log_abs, expected, rel_tol=1e-10)


def test_weighted_vdm_zero_weight_point():
    w = AdmissibleWeight.custom(
        lambda p: np.where(p[:, 0].real > 1.5, np.inf, 0.0)
    )
    ld = vdm.log_abs_weighted_vdm(np.array([0.0, 1.0, 2.0]), 2, w)
    assert ld.is_zero


def test_diameter_exponent_and_nth_order_diameter():
    assert vdm.diameter_exponent(2, 1) == pytest.approx(2.0 / (2 * 3))
    # three cube roots of unity: |VDM| = 3^{3/2}, delta = 3^{1/2}
    z = np.exp(2j * np.pi * np.arange(3) / 3)
    logw = vdm.log_abs_weighted_vdm(z, 2, AdmissibleWeight.zero())
    delta = math.exp(vdm.diameter_exponent(2, 1) * logw.log_abs)
    assert delta == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_homogeneous_vdm_degree_block():
    # degree-2 block in d=2 is (z1^2, z1 z2, z2^2), h_2 = 3 points
    assert degree_block(2, 2) == ((2, 0), (1, 1), (0, 2))
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    x, y = pts.T
    brute = np.linalg.slogdet(np.stack([x**2, x * y, y**2]))[1]
    ld = vdm.log_abs_homogeneous_vdm(pts, 2)
    assert ld.log_abs == pytest.approx(brute, rel=1e-12)


def test_homogeneous_vdm_d2_oracle():
    # degree-1 block in d=2 is (z1, z2): det [[z1, w1], [z2, w2]]
    pts = np.array([[1.0 + 0j, 2.0 + 0j], [3.0 + 0j, 5.0 + 0j]])
    ld = vdm.log_abs_homogeneous_vdm(pts, 1)
    assert math.isclose(
        ld.log_abs, math.log(abs(1 * 5 - 2 * 3)), abs_tol=1e-12
    )


def test_homogeneous_vdm_point_count_checked():
    with pytest.raises(InvalidInputError):
        vdm.log_abs_homogeneous_vdm(np.array([[1.0 + 0j, 2.0 + 0j]]), 2)


@given(st.integers(2, 6), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_vdm_permutation_invariant(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    perm = rng.permutation(n + 1)
    a = vdm.log_abs_vdm(z, n)
    b = vdm.log_abs_vdm(z[perm], n)
    assert math.isclose(a.log_abs, b.log_abs, rel_tol=1e-9, abs_tol=1e-9)


@given(st.integers(2, 5), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_weighted_vdm_never_above_unweighted_for_positive_q(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    plain = vdm.log_abs_vdm(z, n)
    weighted = vdm.log_abs_weighted_vdm(z, n, AdmissibleWeight.quadratic())
    assert weighted.log_abs <= plain.log_abs + 1e-12


@pytest.mark.parametrize("shape", [(7, 7), (6, 48), (91, 1681), (40, 12)],
                         ids=["square", "6x48", "91x1681", "tall"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_pivoted_qr_matches_scipy_qr(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    mat = rng.normal(size=shape).astype(dtype)
    if dtype is complex:
        mat += 1j * rng.normal(size=shape)
    before = mat.copy()
    r, piv = scipy.linalg.qr(mat, mode="r", pivoting=True)
    factor, mine = vdm.pivoted_qr(mat)
    assert np.array_equal(mat, before)
    assert mine.tolist() == piv.tolist()
    assert np.triu(factor).tobytes() == r.tobytes()
    # In place on a Fortran-ordered copy: the same bits.
    work = np.asfortranarray(mat)
    factor, mine = vdm.pivoted_qr(work, overwrite=True)
    assert mine.tolist() == piv.tolist()
    assert np.triu(factor).tobytes() == r.tobytes()


def test_pivoted_qr_rejects_non_finite_entries():
    mat = np.eye(3)
    mat[1, 2] = np.nan
    with pytest.raises(InvalidInputError, match="inf or NaN"):
        vdm.pivoted_qr(mat)


_LOADER_SCRIPT = """
import importlib, sys
import numpy as np
from pluripot import vdm
real, cplx = np.eye(3), np.eye(3, dtype=complex)
cases = [(name, (a,)) for name in ("geqp3", "potrf", "trtrs", "trsm")
         for a in (real, cplx)]
cases += [("ger", (real,)), ("geru", (cplx,)), ("trtrs", (real, cplx))]
got = [vdm._lapack(name, *arrays) for name, arrays in cases]
flapack = vdm._scipy_module("linalg", "_flapack")
assert vdm._scipy_module("linalg", "_flapack") is flapack
assert sys.modules["scipy.linalg._flapack"] is flapack
assert not {"scipy.linalg", "scipy.optimize"} & set(sys.modules)
try:
    core = vdm._scipy_module("optimize._highspy", "_core")
    assert "scipy.optimize" not in sys.modules
except ImportError:  # a SciPy without HiGHS's bindings imports scipy.optimize
    core = None
import scipy.linalg, scipy.optimize
for (name, arrays), routine in zip(cases, got):
    lib = scipy.linalg.get_blas_funcs if name in ("trsm", "ger", "geru") \
        else scipy.linalg.get_lapack_funcs
    assert routine is lib((name,), arrays)[0], (name, arrays)
assert got[-1] is flapack.ztrtrs
assert scipy.linalg.lapack._flapack is flapack
if core is not None:
    assert sys.modules["scipy.optimize._highspy._core"] is core
decomp = vdm._scipy_module("linalg", "_decomp")
assert decomp is importlib.import_module("scipy.linalg._decomp")
"""


def test_scipy_loader_binds_scipys_own_routines():
    # A fresh process, so the loader runs before scipy.linalg or
    # scipy.optimize is imported; their later import reuses its modules.
    src = str(pathlib.Path(vdm.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _LOADER_SCRIPT], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
