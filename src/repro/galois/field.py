"""Arithmetic in the binary extension fields GF(2^m).

:class:`GaloisField` wraps the tables from :mod:`repro.galois.tables` with
scalar and numpy-vectorised operations.  The class is deliberately *not* an
element wrapper — elements are plain Python ints or numpy arrays of the
field's dtype, which keeps the hot encode/decode loops allocation-free.

Example
-------
>>> gf = GF256
>>> gf.multiply(0x57, 0x83)
193
>>> gf.divide(gf.multiply(7, 11), 11)
7
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.galois import packed
from repro.galois.tables import (
    PRIMITIVE_POLYNOMIALS,
    FieldTableError,
    _dtype_for_width,
    exp_log_tables,
    full_multiplication_table,
)

__all__ = ["GaloisField", "GF16", "GF256", "GF65536", "field_for_width"]


class GaloisField:
    """The finite field GF(2^m) with table-driven arithmetic.

    Parameters
    ----------
    m:
        Symbol width in bits (2..16).
    primitive_poly:
        Optional override of the field's primitive polynomial (full form,
        including the ``x^m`` term).

    Notes
    -----
    Addition and subtraction are both XOR.  Multiplication and division use
    discrete-log tables; for ``m <= 8`` a dense multiplication table is also
    available and used by :meth:`scale` for constant-times-vector products.
    """

    __slots__ = ("m", "order", "primitive_poly", "dtype", "_exp", "_log", "_mul_table")

    def __init__(self, m: int, primitive_poly: int | None = None):
        if m not in PRIMITIVE_POLYNOMIALS:
            raise FieldTableError(
                f"unsupported symbol width m={m}; "
                f"supported widths: {sorted(PRIMITIVE_POLYNOMIALS)}"
            )
        self.m = m
        self.order = 1 << m
        self.primitive_poly = (
            PRIMITIVE_POLYNOMIALS[m] if primitive_poly is None else primitive_poly
        )
        self.dtype = _dtype_for_width(m)
        self._exp, self._log = exp_log_tables(m, primitive_poly)
        self._mul_table = full_multiplication_table(m) if m <= 8 else None

    # ------------------------------------------------------------------
    # scalar operations
    # ------------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        """Field addition (== subtraction == XOR)."""
        return a ^ b

    subtract = add

    def multiply(self, a: int, b: int) -> int:
        """Field multiplication of two scalars."""
        if a == 0 or b == 0:
            return 0
        return int(self._exp[int(self._log[a]) + int(self._log[b])])

    def divide(self, a: int, b: int) -> int:
        """Field division ``a / b``; raises ZeroDivisionError for b == 0."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^m)")
        if a == 0:
            return 0
        diff = int(self._log[a]) - int(self._log[b])
        return int(self._exp[diff % (self.order - 1)])

    def inverse(self, a: int) -> int:
        """Multiplicative inverse of a nonzero scalar."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return int(self._exp[(self.order - 1) - int(self._log[a])])

    def power(self, a: int, exponent: int) -> int:
        """``a ** exponent`` in the field (exponent may be any integer)."""
        if a == 0:
            if exponent == 0:
                return 1
            if exponent < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 0
        log_a = int(self._log[a])
        return int(self._exp[(log_a * exponent) % (self.order - 1)])

    def alpha_power(self, exponent: int) -> int:
        """``alpha ** exponent`` for the primitive element alpha."""
        return int(self._exp[exponent % (self.order - 1)])

    # ------------------------------------------------------------------
    # vector operations (numpy)
    # ------------------------------------------------------------------
    def _as_symbols(self, a: np.ndarray | int) -> np.ndarray:
        arr = np.asarray(a, dtype=self.dtype)
        return arr

    def multiply_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field product of two symbol arrays (broadcasting)."""
        a = self._as_symbols(a)
        b = self._as_symbols(b)
        logs = self._log[a] + self._log[b]
        out = self._exp[logs % (self.order - 1)]
        zero = (a == 0) | (b == 0)
        if zero.any():
            out = np.where(zero, self.dtype.type(0), out)
        return out.astype(self.dtype, copy=False)

    def scale(self, c: int, v: np.ndarray) -> np.ndarray:
        """Constant-times-vector product ``c * v`` over the field.

        This is the inner operation of RSE encoding; for small fields it is a
        single fancy-index into the dense multiplication table.
        """
        v = self._as_symbols(v)
        if c == 0:
            return np.zeros_like(v)
        if c == 1:
            return v.copy()
        if self._mul_table is not None:
            return self._mul_table[c][v]
        log_c = int(self._log[c])
        out = self._exp[(self._log[v] + log_c) % (self.order - 1)]
        out = np.where(v == 0, self.dtype.type(0), out)
        return out.astype(self.dtype, copy=False)

    def scale_accumulate(
        self, acc: np.ndarray, c: int, v: np.ndarray
    ) -> None:
        """In-place ``acc ^= c * v``, table-driven.

        The inner step of the scalar reference encode/decode loops; the
        batched hot path is :meth:`matmul`.
        """
        if c == 0:
            return
        if c == 1:
            np.bitwise_xor(acc, self._as_symbols(v), out=acc)
            return
        np.bitwise_xor(acc, self.scale(c, v), out=acc)

    def dot(self, coefficients: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """GF inner product: ``sum_i coefficients[i] * vectors[i]``.

        ``vectors`` has shape ``(len(coefficients), symbols)``; the result has
        shape ``(symbols,)``.
        """
        vectors = self._as_symbols(vectors)
        acc = np.zeros(vectors.shape[1:], dtype=self.dtype)
        for c, row in zip(coefficients, vectors):
            self.scale_accumulate(acc, int(c), row)
        return acc

    # ------------------------------------------------------------------
    # batched kernels
    # ------------------------------------------------------------------
    # These replace the per-row Python loops of the RSE hot path with one
    # table gather plus an XOR reduction.  For m <= 8 the dense
    # multiplication table makes zero handling implicit (row/column 0 of
    # the table are zero); the exp/log path masks zeros explicitly, using
    # the same ``% (order - 1)`` idiom as :meth:`multiply_vec` to keep the
    # ``log[0] = -1`` sentinel out of range trouble.

    def _products(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise products of two broadcastable symbol arrays."""
        if self._mul_table is not None:
            return self._mul_table[a, b]
        logs = self._log[a] + self._log[b]
        out = self._exp[logs % (self.order - 1)]
        zero = (a == 0) | (b == 0)
        return np.where(zero, self.dtype.type(0), out).astype(self.dtype, copy=False)

    def multiply_outer(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Field outer product: ``out[i, j] = u[i] * v[j]``.

        The batched building block of Gauss-Jordan elimination: one call
        eliminates a whole column instead of one row at a time.
        """
        u = self._as_symbols(u)
        v = self._as_symbols(v)
        return self._products(u[:, None], v[None, :])

    def scale_accumulate_many(
        self, acc: np.ndarray, coefficients: np.ndarray, vectors: np.ndarray
    ) -> None:
        """In-place ``acc ^= sum_i coefficients[i] * vectors[i]`` (batched).

        ``coefficients`` has shape ``(t,)`` and ``vectors`` ``(t, S)``; the
        whole linear combination is one table gather and one XOR reduction
        instead of ``t`` Python-level :meth:`scale_accumulate` calls.
        """
        coefficients = self._as_symbols(coefficients)
        vectors = self._as_symbols(vectors)
        if coefficients.shape[0] == 0:
            return
        products = self._products(coefficients[:, None], vectors)
        np.bitwise_xor(acc, np.bitwise_xor.reduce(products, axis=0), out=acc)

    #: Scratch elements allowed for one matmul gather tensor (~4 MiB of
    #: uint8); the reduction axis is chunked to stay under this.
    _MATMUL_SCRATCH = 1 << 22
    #: Largest batch slab (bytes of right-operand payload) the nibble-sliced
    #: kernel materialises tables for at once.
    _SLICED_SLAB = 1 << 24

    def _matmul_operands(self, a: np.ndarray, b: np.ndarray) -> tuple:
        """``(a, b3, index)`` for a product ``a @ b``.

        ``b3`` is ``b`` as a ``(B, s, c)`` batch (what the kernels take);
        ``index`` takes their ``(B, r, c)`` output back to ``b``'s rank.
        """
        a = self._as_symbols(a)
        b = self._as_symbols(b)
        if a.ndim != 2:
            raise ValueError(f"left operand must be 2-D, got shape {a.shape}")
        if b.ndim == 1:
            b3, index = b[None, :, None], (0, slice(None), 0)
        elif b.ndim == 2:
            b3, index = b[None], 0
        else:
            b3, index = b, ...
        if b3.ndim != 3 or a.shape[1] != b3.shape[1]:
            raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
        return a, b3, index

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product over the field, vectorised.

        ``a`` has shape ``(r, s)``; ``b`` may be a vector ``(s,)``, a matrix
        ``(s, c)`` or a batch of matrices ``(B, s, c)`` (one product per
        batch entry, as used by :meth:`repro.fec.rse.RSECodec.encode_blocks`).

        The product runs on the packed-lane kernel
        (:mod:`repro.galois.packed`), which the differential suite holds to
        bit-identity with :meth:`matmul_reference`.
        """
        a, b3, index = self._matmul_operands(a, b)
        telemetry = obs.is_enabled()
        started = time.perf_counter() if telemetry else 0.0
        out = packed.matmul_blocks(self, a, b3)
        if telemetry:
            obs.counter("galois.matmul_calls", m=self.m).inc()
            obs.counter("galois.product_terms", m=self.m).inc(
                a.shape[0] * b3.size  # r * (B * s * c)
            )
            obs.histogram("galois.kernel_seconds").observe(
                time.perf_counter() - started
            )
        return out[index]

    def matmul_reference(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The PR-1 reference product: same operands and result as
        :meth:`matmul`, run only by tests and benchmarks.

        Its outputs *define* correctness for :meth:`matmul` (DESIGN.md
        section 16); a speed-up may not edit it.  It selects between two
        kernels by problem shape:

        * a *gather* kernel — one multiplication-table lookup per product
          term, reduction axis chunked to keep the scratch tensor small;
        * a *nibble-sliced* kernel for packet-sized payloads (the
          gf-complete "split table" trick): the ``2^b * row`` multiples of
          ``b`` are built once, the 15 nonzero nibble multiples derived
          from them by XOR (GF(2^m) scaling is linear), and each output row
          is then a pure word-wide XOR of selected rows — no per-element
          table gathers in the ``r * s``-sized inner loop at all.
        """
        a, b3, index = self._matmul_operands(a, b)
        r, s = a.shape
        n_batch, _, c = b3.shape
        # The sliced kernel pays a fixed cost (bit planes + nibble tables)
        # per call; it only wins once the r*s*B selection work amortises it
        # and the rows are long enough for word-wide XORs to matter.
        row_bytes = c * self.dtype.itemsize
        if r >= 4 and row_bytes >= 256 and r * s * n_batch >= 48:
            return self._matmul_sliced(a, b3)[index]
        return self._matmul_gather(a, b3)[index]

    def _matmul_gather(self, a: np.ndarray, b3: np.ndarray) -> np.ndarray:
        """Table-gather product kernel: ``(r, s) @ (B, s, c) -> (B, r, c)``."""
        r, s = a.shape
        n_batch, _, c = b3.shape
        out = np.zeros((n_batch, r, c), dtype=self.dtype)
        chunk = max(1, self._MATMUL_SCRATCH // max(1, n_batch * r * c))
        for s0 in range(0, s, chunk):
            a_chunk = a[None, :, s0:s0 + chunk, None]     # (1, r, t, 1)
            b_chunk = b3[:, None, s0:s0 + chunk, :]       # (B, 1, t, c)
            products = self._products(a_chunk, b_chunk)   # (B, r, t, c)
            out ^= np.bitwise_xor.reduce(products, axis=2)
        return out

    def _matmul_sliced(self, a: np.ndarray, b3: np.ndarray) -> np.ndarray:
        """Nibble-sliced product kernel: ``(r, s) @ (B, s, c) -> (B, r, c)``."""
        n_batch, s, c = b3.shape
        out = np.empty((n_batch, a.shape[0], c), dtype=self.dtype)
        rows_per_slab = max(1, self._SLICED_SLAB // max(1, 16 * s * c))
        for b0 in range(0, n_batch, rows_per_slab):
            out[b0:b0 + rows_per_slab] = self._matmul_sliced_slab(
                a, b3[b0:b0 + rows_per_slab]
            )
        return out

    def _matmul_sliced_slab(self, a: np.ndarray, b3: np.ndarray) -> np.ndarray:
        r, s = a.shape
        n_batch, _, c = b3.shape
        itemsize = self.dtype.itemsize
        # pad rows to a whole number of 8-byte words for the uint64 view
        symbols_per_word = 8 // itemsize
        c_pad = -(-c // symbols_per_word) * symbols_per_word
        words = c_pad * itemsize // 8

        # bit multiples: planes[bit] = (2^bit) * row for every row of b,
        # built by repeated doubling — x*2 = (x << 1) ^ (reduce if x's top
        # bit is set) — which is branch-free SIMD arithmetic, no gathers
        flat = np.zeros((s * n_batch, c_pad), dtype=self.dtype)
        flat[:, :c] = b3.transpose(1, 0, 2).reshape(s * n_batch, c)
        planes = np.empty((self.m, s * n_batch, c_pad), dtype=self.dtype)
        planes[0] = flat
        mask = self.dtype.type(self.order - 1)
        reduce = self.dtype.type(self.primitive_poly & (self.order - 1))
        top_shift = self.m - 1
        for bit in range(1, self.m):
            prev = planes[bit - 1]
            doubled = planes[bit]
            np.left_shift(prev, 1, out=doubled)
            doubled &= mask
            doubled ^= (prev >> top_shift) * reduce
        planes64 = planes.view(np.uint64).reshape(self.m, s, n_batch, words)

        # nibble multiples by linearity: (u ^ v) * x == u*x ^ v*x
        n_positions = -(-self.m // 4)
        tables = np.zeros((n_positions, 16, s, n_batch, words), dtype=np.uint64)
        for position in range(n_positions):
            for value in range(1, 16):
                low_bit = value & -value
                rest = tables[position, value ^ low_bit]
                bit = 4 * position + low_bit.bit_length() - 1
                if bit < self.m:
                    tables[position, value] = rest ^ planes64[bit]
                else:
                    tables[position, value] = rest

        nibbles = np.stack(
            [(a >> (4 * q)) & 15 for q in range(n_positions)]
        ).astype(np.intp)  # (positions, r, s)
        row_index = np.arange(s)
        out64 = np.empty((n_batch, r, words), dtype=np.uint64)
        for j in range(r):
            selected = tables[0][nibbles[0, j], row_index]  # (s, B, words)
            for position in range(1, n_positions):
                selected ^= tables[position][nibbles[position, j], row_index]
            out64[:, j] = np.bitwise_xor.reduce(selected, axis=0)
        out = out64.view(self.dtype).reshape(n_batch, r, c_pad)
        return np.ascontiguousarray(out[:, :, :c])

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def elements(self) -> np.ndarray:
        """All field elements ``0 .. 2^m - 1`` as a symbol array."""
        return np.arange(self.order, dtype=self.dtype)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"GaloisField(2^{self.m}, poly={self.primitive_poly:#x})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GaloisField)
            and other.m == self.m
            and other.primitive_poly == self.primitive_poly
        )

    def __hash__(self) -> int:
        return hash((self.m, self.primitive_poly))


#: The fields used in practice.  GF256 matches Rizzo's software coder
#: (m = 8); GF65536 matches McAuley's large-symbol hardware proposal.
GF16 = GaloisField(4)
GF256 = GaloisField(8)
GF65536 = GaloisField(16)

_STANDARD_FIELDS = {4: GF16, 8: GF256, 16: GF65536}


def field_for_width(m: int) -> GaloisField:
    """Return the shared field instance for width ``m`` (building if needed)."""
    if m in _STANDARD_FIELDS:
        return _STANDARD_FIELDS[m]
    return GaloisField(m)
