"""Dense real linear algebra: thin contracts over numpy's LAPACK bindings.

Each factorization and spectral routine wraps one or two `np.linalg`
calls, and each triangular solve a blocked substitution over them (see
below); they exist only for the contract they add: validated
inputs (2-D, square, finite; `thin_qr_rfactor` takes a batch already
validated), NotSPD in place of LinAlgError, results in
the input's dtype, eigenpairs in descending order.  Factorizations and
solves run in the dtype of their input (float32 or float64); the
eigendecomposition runs in float64.

LAPACK's blocked routines, and the BLAS under them, may sum in a different
order when the number of BLAS threads changes, so identical inputs give
bitwise-identical outputs at a fixed BLAS thread count (for example
OPENBLAS_NUM_THREADS=1), not across thread counts.

Symmetry is settled where a matrix is made: numpy evaluates `X.T @ X` of
one buffer as a symmetric product, bitwise symmetric, and sums and
differences of such matrices stay so.  Variant B's UᵀU of the round's
folded R-factors, the inverse from a Cholesky factor, XᵀX with X = L⁻¹ in
`inverse_from_factor`, and the SMW step's update T ∓ ZᵀZ are all formed
this way, so nothing is symmetrized after the fact.  A client's Gram
(`packed_gram`) is its upper triangle alone, packed row by row, so it is
symmetric by construction; packed Grams are summed as they are, and
`unpack_symmetric` copies each entry to both of its places, never sums.
Cholesky and eigh read the lower triangle, so a product that is symmetric
only up to rounding, such as the SMW capacitance U T Uᵀ, is passed to them
as is.

Only numpy is used, not scipy: scipy is not a declared dependency, and
importing `scipy.linalg` raised a process's peak resident memory from 26.8
to 55.1 MB (Python 3.11, numpy 2.4, x86-64 Linux).  numpy has no triangular
solver, so triangular systems go through one of two blocked substitutions,
chosen by the right side:

- A dense right side, such as a head's c columns or the SMW step's rows,
  goes through `_solve_triangular`: it halves the system,
  solves the two diagonal blocks in turn and applies the off-diagonal
  block as one matrix product in between.  Blocks of at most 64 rows are
  one `np.linalg.solve`, a backward-stable LU solve, so a d x d system with
  k right-hand sides costs O(d^2 k) in the products plus small LU blocks,
  and a system of 64 rows or fewer is exactly one `np.linalg.solve` call.
  With 10 right-hand sides at d=64 that LU base is faster than inverted
  16-row blocks applied as products (80 against 99 µs, best of 9 x 3,000
  calls, one OpenBLAS thread).
- A lower-triangular right side, the KL's P_p⁻¹P_q, goes through
  `lower_solve`, which solves each row block only against the columns up
  to its diagonal and applies inverted 16-row diagonal blocks as
  products; `lower_product` forms the KL's other mix, C_p P_q, by the
  same halving.  Both return an array exactly zero above its diagonal.

`inverse_from_factor` solves against the identity, a lower-triangular right
side too, but keeps `_solve_triangular`: it forms Variant B's tracked T,
and a different solver would move the served T's bits.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class NotSPD(Exception):
    """A Cholesky pivot was not strictly positive."""


class DimensionMismatch(Exception):
    """Operands have incompatible shapes."""


def _float_matrix(a, name: str) -> np.ndarray:
    """`a` as a 2-D float32 or float64 array (other dtypes become float64, 1-D a column); not checked for finiteness."""
    m = np.asarray(a)
    if m.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        m = m.astype(np.float64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {m.shape}")
    return m


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a 2-D float array with finite entries."""
    m = _float_matrix(a, name)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _as_square(a, name: str = "a") -> np.ndarray:
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {a.shape}")
    return a


def cholesky_spd(a) -> np.ndarray:
    """Lower Cholesky factor L of a symmetric positive-definite matrix.

    Only the lower triangle of `a` is read.  Raises NotSPD when a pivot
    fails to be strictly positive, which is the signal used upstream to
    detect infeasible downdates and corrupted state.
    """
    a = _as_square(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(str(exc)) from exc


_BLOCK = 64


def _solve_triangular(t: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """Solve T X = B by recursive halving; T is lower or upper triangular.

    T must be zero outside its triangle: each base block is LU-solved whole.
    """
    d = t.shape[0]
    if d <= _BLOCK:
        return np.linalg.solve(t, b)
    h = d // 2
    if lower:
        x1 = _solve_triangular(t[:h, :h], b[:h], True)
        x2 = _solve_triangular(t[h:, h:], b[h:] - t[h:, :h] @ x1, True)
    else:
        x2 = _solve_triangular(t[h:, h:], b[h:], False)
        x1 = _solve_triangular(t[:h, :h], b[:h] - t[:h, h:] @ x2, False)
    return np.concatenate([x1, x2])


def triangular_solve_lower(L: np.ndarray, b) -> np.ndarray:
    """Solve L X = B for lower-triangular L; B may be 1-D or have no columns."""
    L = np.asarray(L)
    b = np.asarray(b, dtype=L.dtype)
    if b.shape[0] != L.shape[0]:
        raise DimensionMismatch(f"factor is {L.shape[0]}x{L.shape[0]} but B has {b.shape[0]} rows")
    return _solve_triangular(L, b, lower=True)


def solve_spd(factor: np.ndarray, b) -> np.ndarray:
    """Solve (L Lᵀ) X = B given the lower Cholesky factor L.

    Two triangular solves; no explicit inverse is formed.  B may be 1-D or
    have any number of columns, including zero.
    """
    L = np.asarray(factor)
    return _solve_triangular(L.T, triangular_solve_lower(L, b), lower=False)


def inverse_from_factor(factor: np.ndarray) -> np.ndarray:
    """(L Lᵀ)^-1 as XᵀX with X = L⁻¹ from the lower Cholesky factor L; bitwise symmetric.

    X is one blocked triangular solve against the identity: with one
    OpenBLAS thread the whole inverse took 118 ms at d=1024 where
    `np.linalg.inv`'s general LU made it 167 ms (4.8 against 5.8 ms at
    d=256), and at d <= 64 the solve is the same LU call as that inverse.
    """
    L = np.asarray(factor)
    x = _solve_triangular(L, np.eye(L.shape[0], dtype=L.dtype), lower=True)
    return x.T @ x


def _lower_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """`a` and `b` as arrays of one float dtype, both square and of one shape."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != a.shape:
        raise DimensionMismatch(f"expected two square matrices of one shape, got {a.shape} and {b.shape}")
    dtype = np.result_type(a, b, np.float32)
    return a.astype(dtype, copy=False), b.astype(dtype, copy=False)


# The diagonal blocks that `lower_solve` inverts have at most this many rows.
# Chosen from timings of 8, 16 and 32 rows at d=64 and d=256.
_DIAGONAL_BLOCK = 16


def _diagonal_block_inverses(L: np.ndarray) -> np.ndarray:
    """The inverse of each 16-row diagonal block of lower-triangular L, as one stack.

    One batched `np.linalg.inv` of the blocks' transposes: an upper
    triangle's LU makes no row exchange, so each inverse is exactly
    triangular.  A last block of fewer rows is padded with the identity,
    whose inverse leaves the block's own inverse in its top-left corner.
    """
    stack = np.empty((-(-L.shape[0] // _DIAGONAL_BLOCK), _DIAGONAL_BLOCK, _DIAGONAL_BLOCK), dtype=L.dtype)
    stack[:] = np.eye(_DIAGONAL_BLOCK, dtype=L.dtype)
    # a slice per block: `as_strided`'s view of all the blocks at once kept about 25 bytes per call alive
    for block, lo in zip(stack, range(0, L.shape[0], _DIAGONAL_BLOCK)):
        diagonal = L[lo : lo + _DIAGONAL_BLOCK, lo : lo + _DIAGONAL_BLOCK]
        block[: len(diagonal), : len(diagonal)] = diagonal.T
    return np.linalg.inv(stack).transpose(0, 2, 1)


def _lower_solve_rows(L, B, inverses, lo, hi, x) -> None:
    """Solve rows lo:hi of L X = B into x[lo:hi, :hi], which holds −L[lo:hi, :lo] X[:lo, :hi] on entry."""
    if hi - lo <= _DIAGONAL_BLOCK:
        inverse = inverses[lo // _DIAGONAL_BLOCK, : hi - lo, : hi - lo]
        np.matmul(inverse, B[lo:hi, :hi] + x[lo:hi, :hi], out=x[lo:hi, :hi])
        return
    m = lo + _DIAGONAL_BLOCK * (-(-(hi - lo) // _DIAGONAL_BLOCK) // 2)  # after half of the rows' diagonal blocks
    _lower_solve_rows(L, B, inverses, lo, m, x)
    x[m:hi, :m] -= L[m:hi, lo:m] @ x[lo:m, :m]
    _lower_solve_rows(L, B, inverses, m, hi, x)


def lower_solve(L, B) -> np.ndarray:
    """L⁻¹B for lower-triangular L and B, as a fresh array exactly zero above its diagonal.

    Recursive halving at a diagonal-block boundary: the top rows are solved
    first, and the bottom rows' right side then loses L₂₁X₁; each row block
    is solved only against the columns up to its diagonal, so X's zero
    upper-right blocks are never formed.  Each diagonal block of at most 16
    rows is applied as a product with its inverse
    (`_diagonal_block_inverses`), the device of LAPACK's blocked `trtri`.
    The inputs are not written.
    """
    L, B = _lower_pair(L, B)
    x = np.zeros(L.shape, dtype=L.dtype)
    _lower_solve_rows(L, B, _diagonal_block_inverses(L), 0, L.shape[0], x)
    return x


def _lower_product_into(a, b, x) -> None:
    """x = ab for lower-triangular a and b; x's zero upper-right blocks are not written."""
    d = a.shape[0]
    if d <= _BLOCK:
        np.matmul(a, b, out=x)
        return
    h = d // 2
    _lower_product_into(a[:h, :h], b[:h, :h], x[:h, :h])
    _lower_product_into(a[h:, h:], b[h:, h:], x[h:, h:])
    np.matmul(a[h:, :h], b[:h, :h], out=x[h:, :h])
    x[h:, :h] += a[h:, h:] @ b[h:, :h]


def lower_product(A, B) -> np.ndarray:
    """AB for lower-triangular A and B, as a fresh array exactly zero above its diagonal.

    [[A₁₁B₁₁, 0], [A₂₁B₁₁ + A₂₂B₂₁, A₂₂B₂₂]] by recursive halving, so the
    zero upper-right blocks are never formed; blocks of at most 64 rows are
    one product, whose entries above the diagonal are sums of products with
    a zero factor.  The inputs are not written.
    """
    A, B = _lower_pair(A, B)
    x = np.zeros(A.shape, dtype=A.dtype)
    _lower_product_into(A, B, x)
    return x


def thin_qr_rfactor(f, y):
    """(R, Z) from one thin QR of [F | Y]: Rᵀ R = Fᵀ F and Z = QᵀY, so RᵀZ = FᵀY.

    R is min(n, d) x d upper-trapezoidal, with +0.0 below its diagonal.
    Row signs are flipped so the diagonal is non-negative, which makes R
    unique for full-rank inputs.  Rank-deficient inputs simply yield
    (numerically) zero rows.

    Y is n x c, cast to F's dtype.  The one QR is of [F | Y], the least
    squares device of Golub and Van Loan (*Matrix Computations*, §5.3):
    its first k = min(n, d) rows are [R | Z].  The rows below k touch only
    Y's columns, so FᵀY = RᵀZ exactly in exact arithmetic, and the sign
    flip of a row of R flips the same row of Z.

    F and Y must hold finite entries, which is not checked here: a client
    batch is validated once, by `stats.batch_arrays`, before its QR.
    numpy's mode "r" already writes +0.0 below the diagonal, so only a
    row whose diagonal is negative is touched, and only from its diagonal
    on: the result is bitwise `np.triu(sign(diag) * R)` with a zero
    diagonal taken as positive, and no entry below the diagonal is -0.0,
    the +0.0 a packed frame restores.
    """
    f = _float_matrix(f, "f")
    n, d = f.shape
    if n < 1:
        raise DimensionMismatch("F must have at least one row")
    y = _float_matrix(y, "y").astype(f.dtype, copy=False)
    if y.shape[0] != n:
        raise DimensionMismatch(f"F has {n} rows but Y has {y.shape[0]}")
    r = np.linalg.qr(np.hstack([f, y]), mode="r")[: min(n, d)]
    # negate a row whose diagonal is negative from its diagonal on: its +0.0 below the diagonal stays +0.0
    for i in np.flatnonzero(np.diagonal(r) < 0):
        r[i, i:] *= -1
    return r[:, :d], r[:, d:]


@lru_cache(maxsize=16)
def upper_mask(d: int) -> np.ndarray:
    """Read-only d x d boolean mask of the upper triangle, cached per d.

    A boolean gather takes the masked entries row by row, so `m[mask]` is
    m's packed upper triangle, and `m[mask[:r]]` the upper trapezoid of an
    r x d matrix: one mask per d serves every packed S and R factor.
    """
    mask = np.triu(np.ones((d, d), dtype=bool))
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=32)
def read_only_zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Read-only zeros of `shape` in `dtype`, cached per (shape, dtype) and shared by every caller.

    A broadcast of one zero scalar, so it allocates no buffer of that shape.
    """
    return np.broadcast_to(np.zeros((), dtype=dtype), shape)


def add_to_diagonal(m: np.ndarray, value) -> np.ndarray:
    """Add `value` to the diagonal of the square matrix `m` in place and return `m`: S + value*I, no identity formed.

    It is bitwise S + value*I unless S holds a -0.0 off its diagonal, which
    adding I's +0.0 would turn to +0.0; a Gram summed from +0.0 zeros, as
    every ledger's and the oracle's is, holds none.
    """
    diagonal = np.einsum("ii->i", m)  # a writable view of m's diagonal
    diagonal += value
    return m


# A batch of at most this many rows forms its Gram as a general product.
# numpy's symmetric product computes one triangle and then copies it into
# the other one entry at a time; with one OpenBLAS thread, that copy costs
# more than the general product's second triangle up to about 128 rows at
# d=64 and d=256 (d=256, f64: 0.10 against 0.25 ms at 2 rows, 0.29 against
# 0.34 ms at 64, a tie at 128, 1.0 against 0.7 ms at 256).
GENERAL_PRODUCT_ROWS = 128


def packed_gram(f: np.ndarray) -> np.ndarray:
    """The upper triangle of FᵀF, row by row, in F's dtype: d(d+1)/2 entries.

    Short batches take a general product (`np.dot` of Fᵀ with a copy of F,
    which numpy does not recognise as symmetric; `@` takes a slower
    non-BLAS loop at one row), tall ones numpy's symmetric product.  With
    one OpenBLAS thread the general product gave `f.T @ f`'s upper triangle
    bitwise at every power-of-two d from 1 to 1024 up to 256 rows, in f32
    and f64; at other widths, such as d = 65 or 100 in f64, some entries
    differ in the last place, each within the dot product's rounding bound.
    """
    gram = np.dot(f.T, f.copy()) if f.shape[0] <= GENERAL_PRODUCT_ROWS else f.T @ f
    return gram[upper_mask(f.shape[1])]


def unpack_symmetric(packed: np.ndarray, d: int) -> np.ndarray:
    """The symmetric d x d matrix whose packed upper triangle is `packed`; each entry is copied, never summed."""
    mask = upper_mask(d)
    m = np.empty((d, d), dtype=packed.dtype)
    m[mask] = packed
    m.T[mask] = packed
    return m


def symmetric_eig(a):
    """Eigendecomposition of a symmetric matrix, computed in float64.

    Returns (eigenvalues, eigenvectors) in the input's dtype, eigenvalues
    sorted descending (ties keep LAPACK's order) and eigenvectors in
    matching columns.  Only the lower triangle of `a` is read.
    """
    a = _as_square(a)
    vals, vecs = np.linalg.eigh(a.astype(np.float64), UPLO="L")
    order = np.argsort(-vals, kind="stable")
    return vals[order].astype(a.dtype), vecs[:, order].astype(a.dtype)


def frobenius_norm(a) -> float:
    a = np.asarray(a, dtype=np.float64)
    return math.sqrt(float(np.sum(a * a)))


def rel_frobenius_dev(a, b) -> float:
    """Relative Frobenius deviation ||A - B||_F / ||B||_F, or ||A||_F when B is zero.

    An empty retained set has a zero oracle head; a head is then judged by
    its absolute norm.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    ref = frobenius_norm(b)
    if ref == 0.0:
        return frobenius_norm(a)
    return frobenius_norm(a - b) / ref
