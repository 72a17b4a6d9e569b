"""Matrix algebra over GF(2^m).

Provides exactly what a systematic MDS erasure code needs:

* Vandermonde matrix construction (the polynomial-evaluation view of RSE
  coding used in the paper's Section 2.1),
* Gauss-Jordan inversion and linear solving,
* systematisation of a generator matrix (the Rizzo construction: multiply an
  ``n x k`` Vandermonde by the inverse of its top ``k x k`` block so that the
  first ``k`` rows become the identity and the code stays MDS).

Matrices are plain 2-D numpy arrays of the field's dtype; the field instance
is passed explicitly so these functions stay stateless and easy to test.
"""

from __future__ import annotations

import numpy as np

from repro.galois.field import GaloisField

__all__ = [
    "SingularMatrixError",
    "vandermonde",
    "matmul",
    "identity",
    "invert",
    "solve",
    "systematic_generator",
]


class SingularMatrixError(ValueError):
    """Raised when a matrix that must be invertible is singular.

    For a correctly-constructed MDS generator matrix this indicates a bug or
    a decode attempt with duplicated packet indices.
    """


def identity(field: GaloisField, size: int) -> np.ndarray:
    """The ``size x size`` identity matrix over ``field``."""
    return np.eye(size, dtype=field.dtype)


def vandermonde(field: GaloisField, n_rows: int, n_cols: int, points: list[int] | None = None) -> np.ndarray:
    """Vandermonde matrix ``V[i, j] = x_i ** j`` over the field.

    The default evaluation points are ``alpha**i`` (alpha the primitive
    element), which guarantees the points are distinct for
    ``n_rows < 2^m - 1`` and therefore that every ``n_cols x n_cols``
    sub-matrix is invertible — the MDS property the decoder relies on.
    """
    if points is None:
        # alpha^0 .. alpha^(2^m - 2) are the 2^m - 1 distinct nonzero elements
        if n_rows > field.order - 1:
            raise ValueError(
                f"cannot pick {n_rows} distinct alpha powers in GF(2^{field.m})"
            )
        points = [field.alpha_power(i) for i in range(n_rows)]
    if len(points) != n_rows:
        raise ValueError("need exactly one evaluation point per row")
    if len(set(points)) != len(points):
        raise ValueError("evaluation points must be distinct for MDS codes")
    matrix = np.zeros((n_rows, n_cols), dtype=field.dtype)
    for i, x in enumerate(points):
        for j in range(n_cols):
            matrix[i, j] = field.power(x, j)
    return matrix


def matmul(field: GaloisField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field.

    ``a`` is ``(r, s)``; ``b`` is ``(s, c)`` (or ``(s,)`` for a vector).
    Delegates to the batched :meth:`GaloisField.matmul` kernel.
    """
    a = np.asarray(a, dtype=field.dtype)
    b = np.asarray(b, dtype=field.dtype)
    if a.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    return field.matmul(a, b)


def invert(field: GaloisField, matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix with Gauss-Jordan elimination over the field."""
    matrix = np.asarray(matrix, dtype=field.dtype)
    size = matrix.shape[0]
    if matrix.shape != (size, size):
        raise ValueError(f"matrix is not square: {matrix.shape}")
    # One augmented [matrix | identity] array: every row operation (swap,
    # pivot scaling, column elimination) then runs once over both halves.
    work = np.concatenate([matrix, identity(field, size)], axis=1)

    for col in range(size):
        pivot_row = col
        while pivot_row < size and work[pivot_row, col] == 0:
            pivot_row += 1
        if pivot_row == size:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]

        pivot_inv = field.inverse(int(work[col, col]))
        work[col] = field.scale(pivot_inv, work[col])

        # Eliminate the whole column at once: rows with a zero factor (and
        # the pivot row, masked below) pick up an all-zero outer-product row.
        factors = work[:, col].copy()
        factors[col] = 0
        work ^= field.multiply_outer(factors, work[col])
    return np.ascontiguousarray(work[:, size:])


def solve(field: GaloisField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` over the field (b may be a matrix of columns)."""
    return matmul(field, invert(field, a), b)


def systematic_generator(field: GaloisField, k: int, n: int) -> np.ndarray:
    """Systematic MDS generator matrix ``G`` of shape ``(n, k)``.

    Construction (Rizzo '97): start from an ``n x k`` Vandermonde ``V`` whose
    every ``k x k`` sub-matrix is invertible, then right-multiply by the
    inverse of the top ``k x k`` block.  The result has the identity as its
    first ``k`` rows (data packets pass through unchanged) and retains the
    any-k-of-n decodability of the original.

    Row ``k + j`` gives the coefficients of parity packet ``j``.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > field.order - 1:
        raise ValueError(
            f"block length n={n} exceeds GF(2^{field.m}) code length limit "
            f"{field.order - 1}"
        )
    v = vandermonde(field, n, k)
    top_inverse = invert(field, v[:k])
    generator = matmul(field, v, top_inverse)
    # The construction guarantees this, but it is cheap to assert once at
    # build time rather than debug a corrupted decode later.
    if not np.array_equal(generator[:k], identity(field, k)):
        raise AssertionError("systematisation failed to produce identity rows")
    return generator
