"""Kernel contracts: factorizations, solves, norms, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedridge

from fedridge.kernels import (
    DimensionMismatch,
    NotSPD,
    cholesky_spd,
    frobenius_norm,
    inverse_from_factor,
    lower_product,
    lower_solve,
    rel_frobenius_dev,
    solve_spd,
    symmetric_eig,
    thin_qr_rfactor,
    triangular_solve_lower,
)


def test_cholesky_hand_case():
    L = cholesky_spd(np.array([[4.0, 2.0], [2.0, 3.0]]))
    np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], rtol=1e-15)
    np.testing.assert_allclose(L @ L.T, [[4.0, 2.0], [2.0, 3.0]], rtol=1e-15)


def test_cholesky_identity():
    np.testing.assert_array_equal(cholesky_spd(np.eye(3)), np.eye(3))


def test_cholesky_indefinite_raises():
    # eigenvalues {3, -1}
    with pytest.raises(NotSPD):
        cholesky_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        cholesky_spd(np.ones((2, 3)))


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_cholesky_reconstruction_precision(dtype, tol):
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = int(rng.integers(1, 25))
        m = rng.standard_normal((d, d))
        a = ((m.T @ m + np.eye(d)) / 2 + (m.T @ m + np.eye(d)).T / 2).astype(dtype)
        L = cholesky_spd(a)
        assert L.dtype == dtype
        assert rel_frobenius_dev(L @ L.T, a) <= tol
        assert np.all(np.diagonal(L) > 0)
        assert np.all(np.triu(L, 1) == 0)


def test_solve_diagonal():
    L = cholesky_spd(2.0 * np.eye(2))
    np.testing.assert_allclose(solve_spd(L, np.array([1.0, 1.0])), [0.5, 0.5], rtol=1e-15)


def test_solve_two_by_two():
    L = cholesky_spd(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(solve_spd(L, np.array([1.0, 1.0])), [1 / 3, 1 / 3], rtol=1e-14)


def test_solve_zero_columns():
    L = cholesky_spd(np.eye(3))
    x = solve_spd(L, np.zeros((3, 0)))
    assert x.shape == (3, 0)


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_spd(cholesky_spd(np.eye(3)), np.ones((2, 1)))


def test_solve_residual_property():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = int(rng.integers(1, 33))
        m = rng.standard_normal((d, d))
        a = m.T @ m + np.eye(d)
        x0 = rng.standard_normal((d, 3))
        b = a @ x0
        x = solve_spd(cholesky_spd(a), b)
        assert frobenius_norm(a @ x - b) / frobenius_norm(b) <= 1e-10
        assert rel_frobenius_dev(x, x0) <= 1e-9


def test_triangular_solve_lower():
    L = np.array([[2.0, 0.0], [1.0, 3.0]])
    x = triangular_solve_lower(L, np.array([4.0, 7.0]))
    np.testing.assert_allclose(x, [2.0, 5 / 3], rtol=1e-15)


def test_qr_rank_deficient():
    r, _ = thin_qr_rfactor(np.array([[3.0, 0.0], [4.0, 0.0]]), np.ones((2, 1)))
    np.testing.assert_allclose(r, [[5.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_qr_orthonormal_input():
    np.testing.assert_allclose(thin_qr_rfactor(np.eye(2), np.ones((2, 1)))[0], np.eye(2), atol=1e-15)


def test_qr_gram_of_rank_one_batch():
    r, _ = thin_qr_rfactor(np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones((2, 1)))
    np.testing.assert_allclose(r.T @ r, [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)


def test_qr_gram_identity_property():
    rng = np.random.default_rng(2)
    for _ in range(15):
        n = int(rng.integers(1, 65))
        d = int(rng.integers(1, 65))
        f = rng.standard_normal((n, d))
        # from [F | Y] = Q [R | Z]: RᵀR = FᵀF and RᵀZ = FᵀY
        y = rng.standard_normal((n, int(rng.integers(1, 11))))
        r, z = thin_qr_rfactor(f, y)
        assert r.shape == (min(n, d), d)
        assert np.all(np.diagonal(r) >= 0)
        assert rel_frobenius_dev(r.T @ r, f.T @ f) <= 1e-12
        assert rel_frobenius_dev(r.T @ z, f.T @ y) <= 1e-12


def test_qr_of_features_and_labels_is_one_factorization():
    # [F | Y] = Q [R | Z] on its first min(n, d) rows, so R is F's factor and RᵀZ = FᵀY
    rng = np.random.default_rng(3)
    for n, d, c in ((2, 5, 3), (5, 5, 1), (7, 5, 3), (30, 5, 3)):
        f, y = rng.standard_normal((n, d)), rng.standard_normal((n, c))
        r, z = thin_qr_rfactor(f, y)
        assert r.shape == (min(n, d), d) and z.shape == (min(n, d), c)
        assert rel_frobenius_dev(r, _reference_rfactor(f, np.zeros((n, 0)))[0]) <= 1e-13  # F's own R factor
        assert rel_frobenius_dev(r.T @ z, f.T @ y) <= 1e-13
    r, z = thin_qr_rfactor(np.ones((3, 2), dtype=np.float32), np.ones((3, 1)))
    assert r.dtype == z.dtype == np.float32
    with pytest.raises(DimensionMismatch):
        thin_qr_rfactor(np.ones((3, 2)), np.ones((2, 1)))


def _reference_rfactor(f, y):
    """The sign-fixed R and Z as `np.triu(sign · qr_r)` of [F | Y], a zero diagonal taken as positive."""
    n, d = f.shape
    r = np.linalg.qr(np.hstack([f, y.astype(f.dtype)]), mode="r")[: min(n, d)]
    signs = np.sign(np.diagonal(r)).astype(f.dtype)
    signs[signs == 0] = 1
    r = np.triu(signs[:, None] * r)
    return r[:, :d], r[:, d:]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", ["1", "2", "3", "d-1", "d", "d+5"])
@pytest.mark.parametrize("zero_column", [False, True])
def test_rfactor_is_bitwise_the_sign_fixed_triu_of_lapack(dtype, rows, zero_column):
    d, c = 9, 3
    n = {"1": 1, "2": 2, "3": 3, "d-1": d - 1, "d": d, "d+5": d + 5}[rows]
    rng = np.random.default_rng(n + 100 * zero_column)
    raw_negative = 0
    for trial in range(6):
        f = rng.standard_normal((n, d)).astype(dtype)
        y = rng.standard_normal((n, c)).astype(dtype)
        if zero_column:
            f[:, 2] = 0.0
        # a positive leading entry makes LAPACK's first Householder diagonal negative; a
        # single row is its own R, so there a negative entry is what needs the flip
        f[0, 0] = (-1) ** (trial + (n == 1)) * abs(f[0, 0])
        raw = np.linalg.qr(np.hstack([f, y]), mode="r")[: min(n, d)]
        raw_negative += int((np.diagonal(raw) < 0).sum())
        want_r, want_z = _reference_rfactor(f, y)
        got_r, got_z = thin_qr_rfactor(f, y)
        assert _same_bits(got_r, want_r) and _same_bits(got_z, want_z)
        below = ~np.triu(np.ones(got_r.shape, dtype=bool))
        assert not np.signbit(got_r[below]).any()
        assert (np.diagonal(got_r) >= 0).all()
    assert raw_negative  # the flip was exercised


def test_eig_diagonal():
    vals, vecs = symmetric_eig(np.diag([10.0, 1.0]))
    np.testing.assert_allclose(vals, [10.0, 1.0])
    np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-14)


def test_eig_rank_one():
    vals, _ = symmetric_eig(np.array([[1.0, 1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(vals, [2.0, 0.0], atol=1e-15)


def test_eig_zero_matrix():
    vals, vecs = symmetric_eig(np.zeros((3, 3)))
    np.testing.assert_array_equal(vals, np.zeros(3))
    np.testing.assert_array_equal(vecs, np.eye(3))


def test_eig_reconstruction_and_orthogonality():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = int(rng.integers(2, 33))
        m = rng.standard_normal((d, d))
        a = (m + m.T) / 2
        vals, vecs = symmetric_eig(a)
        assert np.all(np.diff(vals) <= 1e-12)  # descending
        assert rel_frobenius_dev(vecs @ np.diag(vals) @ vecs.T, a) <= 1e-10
        assert frobenius_norm(vecs.T @ vecs - np.eye(d)) <= 1e-9


def test_frobenius_and_deviation():
    a = np.array([[0.5], [0.5]])
    b = np.array([[1 / 3], [1 / 3]])
    assert rel_frobenius_dev(a, a) == 0.0
    assert rel_frobenius_dev(a, b) == pytest.approx(0.5, rel=1e-12)
    # at a zero reference the deviation is the absolute norm
    assert rel_frobenius_dev(np.eye(2), np.zeros((2, 2))) == frobenius_norm(np.eye(2))


def test_determinism_bitwise():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((12, 12))
    a = m.T @ m + np.eye(12)
    f, y = rng.standard_normal((20, 12)), rng.standard_normal((20, 3))
    assert np.array_equal(cholesky_spd(a), cholesky_spd(a.copy()))
    for got, again in zip(thin_qr_rfactor(f, y), thin_qr_rfactor(f.copy(), y.copy())):
        assert np.array_equal(got, again)
    v1, e1 = symmetric_eig(a)
    v2, e2 = symmetric_eig(a.copy())
    assert np.array_equal(v1, v2) and np.array_equal(e1, e2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_inverse_from_factor_is_bitwise_symmetric(dtype):
    rng = np.random.default_rng(9)
    for d in (1, 2, 17, 64, 200):
        m = rng.standard_normal((d + 3, d))
        inv = inverse_from_factor(cholesky_spd((m.T @ m + np.eye(d)).astype(dtype)))
        assert inv.dtype == dtype
        assert np.array_equal(inv, inv.T)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-13)])
@pytest.mark.parametrize("d", [17, 64, 65, 257])
def test_inverse_from_factor_matches_the_library_inverse(dtype, tol, d):
    # 64 rows is one LU block of the triangular solve; 65 and 257 take the blocked path
    rng = np.random.default_rng(d)
    m = rng.standard_normal((2 * d, d))  # condition number about 30
    a = (m.T @ m + np.eye(d)).astype(dtype)
    inv = inverse_from_factor(cholesky_spd(a))
    assert inv.dtype == dtype and np.array_equal(inv, inv.T)
    assert rel_frobenius_dev(inv, np.linalg.inv(a.astype(np.float64))) <= tol


def test_non_finite_rejected():
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError):
        cholesky_spd(bad)


def test_kernels_against_library_oracles():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(1, 30))
        m = rng.standard_normal((d, d))
        a = m.T @ m + np.eye(d)
        np.testing.assert_allclose(cholesky_spd(a), np.linalg.cholesky(a), rtol=1e-12, atol=1e-13)
        b = rng.standard_normal((d, 2))
        np.testing.assert_allclose(
            solve_spd(cholesky_spd(a), b), np.linalg.solve(a, b), rtol=1e-9, atol=1e-12
        )
        vals, _ = symmetric_eig(a)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(a)[::-1], rtol=1e-9, atol=1e-11)


def test_package_does_not_import_scipy():
    # numpy-only by design: scipy is not a declared dependency and importing
    # scipy.linalg about doubles the resident memory of a run
    src = str(Path(fedridge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, fedridge, fedridge.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _spd_and_factor(rng, d, dtype):
    m = rng.standard_normal((d, d))
    a = m.T @ m + np.eye(d)
    return a, cholesky_spd(a).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [65, 128, 200, 257])
def test_blocked_triangular_solves_against_library(d, dtype):
    # above 64 rows the triangular solves split into blocks; the reference is
    # numpy's LU solve of the same (dtype-rounded) system in float64, held to
    # test_kernels_against_library_oracles' tolerances in f64 and to what
    # float32's ~7 digits leave after a condition number of up to ~30 and
    # d-term sums in f32
    rtol, atol = (1e-9, 1e-12) if dtype == np.float64 else (1e-3, 1e-4)
    rng = np.random.default_rng(d)
    _, L = _spd_and_factor(rng, d, dtype)
    L64 = L.astype(np.float64)
    for shape in [(d, 0), (d, 1), (d, 10), (d, d), (d,)]:
        b = rng.standard_normal(shape).astype(dtype)
        lower = triangular_solve_lower(L, b)
        spd = solve_spd(L, b)
        for x in (lower, spd):
            assert x.dtype == dtype and x.shape == shape
        b64 = b.astype(np.float64)
        np.testing.assert_allclose(lower, np.linalg.solve(L64, b64), rtol=rtol, atol=atol)
        np.testing.assert_allclose(spd, np.linalg.solve(L64 @ L64.T, b64), rtol=rtol, atol=atol)
        # the upper half alone, as solve_spd applies it after the lower one
        np.testing.assert_allclose(
            solve_spd(L, L @ b), np.linalg.solve(L64.T, b64), rtol=rtol, atol=atol
        )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 17, 64])
def test_small_triangular_solves_are_one_library_call(d, dtype):
    # up to 64 rows a triangular system is one np.linalg.solve, so results at
    # d <= 64 are bitwise those of the plain LU solve
    rng = np.random.default_rng(100 + d)
    _, L = _spd_and_factor(rng, d, dtype)
    for shape in [(d, 0), (d, 1), (d, 10), (d, d), (d,)]:
        b = rng.standard_normal(shape).astype(dtype)
        inner = np.linalg.solve(L, b)
        assert np.array_equal(triangular_solve_lower(L, b), inner)
        assert np.array_equal(solve_spd(L, b), np.linalg.solve(L.T, inner))


_TRIANGLE_WIDTHS = [1, 2, 15, 16, 17, 31, 33, 64, 65, 100, 256]  # 16-row diagonal blocks: one, a boundary either side, many


def _factor_pair(d, seed):
    rng = np.random.default_rng(seed)
    return tuple(_spd_and_factor(rng, d, np.float64)[1] for _ in range(2))


def _below_norm_bound(got, want, a, b):
    # within 4 units of rounding of ‖A‖_F‖B‖_F, the scale of the rounding bounds of a product and of
    # a triangular solve's residual (B its solution).  Against the library's solve too: the factors'
    # diagonals are at least 1, and at d = 1, where the kernel rounds 1/l and then its product with b
    # and the library rounds b/l once, the two differ by at most 3u|x| <= 3u|l||x|
    u = np.finfo(np.float64).eps / 2
    return frobenius_norm(got - want) <= 4 * u * frobenius_norm(a) * frobenius_norm(b)


@pytest.mark.parametrize("d", _TRIANGLE_WIDTHS)
def test_lower_solve_matches_the_library_solve(d):
    L, B = _factor_pair(d, d)
    x = lower_solve(L, B)
    assert x.dtype == np.float64 and x.shape == (d, d)
    assert _below_norm_bound(x, np.linalg.solve(L, B), L, x)
    assert _below_norm_bound(L @ x, B, L, x)  # the residual
    assert np.all(np.triu(x, 1) == 0)


@pytest.mark.parametrize("d", _TRIANGLE_WIDTHS)
def test_lower_product_matches_the_library_product(d):
    A, B = _factor_pair(d, 1000 + d)
    x = lower_product(A, B)
    assert x.dtype == np.float64 and x.shape == (d, d)
    assert _below_norm_bound(x, A @ B, A, B)
    assert np.all(np.triu(x, 1) == 0)


@pytest.mark.parametrize("layout", ["read-only", "float32", "reversed"])
@pytest.mark.parametrize("d", [17, 65, 100])
def test_triangle_kernels_take_factors_as_the_kl_passes_them(d, layout):
    # the KL hands over a ledger's read-only factor, a float32 factor cast to float64, or B's
    # covariance factor, the transpose of a reversed Cholesky factor (negative strides)
    L, B = _factor_pair(d, 2000 + d)
    if layout == "read-only":
        L.flags.writeable = B.flags.writeable = False
    elif layout == "float32":
        L, B = (m.astype(np.float32).astype(np.float64, copy=False) for m in (L, B))
    else:
        L = np.linalg.cholesky((L @ L.T)[::-1, ::-1])[::-1, ::-1].T
        assert L.strides[0] < 0
    before = L.copy(), B.copy()
    for kernel, want in ((lower_solve, np.linalg.solve(L, B)), (lower_product, L @ B)):
        got = kernel(L, B)
        assert got.flags.writeable and not np.shares_memory(got, L) and not np.shares_memory(got, B)
        assert _below_norm_bound(got, want, L, got if kernel is lower_solve else B)
        assert np.all(np.triu(got, 1) == 0)
    assert np.array_equal(L, before[0]) and np.array_equal(B, before[1])  # inputs not written


def test_triangle_kernels_refuse_mismatched_shapes():
    for kernel in (lower_solve, lower_product):
        with pytest.raises(DimensionMismatch):
            kernel(np.eye(3), np.eye(4))
        with pytest.raises(DimensionMismatch):
            kernel(np.ones((3, 2)), np.ones((3, 2)))
