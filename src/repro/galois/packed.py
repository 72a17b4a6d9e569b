"""The packed-lane GF matrix-product kernel behind :meth:`GaloisField.matmul`.

For ``(r, s) @ (B, s, c)`` the output rows are packed ``L = 8 //
itemsize`` to a ``uint64`` (``W = ceil(r / L)`` words).  For byte
position ``q`` of a symbol, column ``j`` of ``a`` and byte value ``v``,
table row ``T[q][v, j]`` holds ``a[i, j] * (v << 8q)`` in lane ``i``.
Scaling by a constant is GF(2)-linear, so the tables come from the
packed columns ``a[:, j]`` doubled ``m`` times —
``T[2^b : 2^(b+1)] = T[:2^b] ^ (a[:, j] * 2^b)`` — ``m`` vector XORs,
no ``mul_table`` gathers, rebuilt per call and dropped on return.  The
product is then, per block of output columns, one row ``take`` per byte
position and one XOR reduction over ``j``: ``s * ceil(m / 8)`` gathers
per output column, each yielding ``L`` finished symbols, against the
gather kernel's ``r * s`` single-symbol lookups.

Every field is supported.  Products too small to repay the table build
skip the lanes: for ``m <= 8`` they take one flat ``take`` from the
dense ``2^m x 2^m`` product table at index ``(a << m) | b`` and one XOR
reduction (:func:`_matmul_small`); for wider fields they run the
reference's own gather kernel.  The operands are only read (receivers
pass read-only payload views).

The contract (DESIGN.md section 16): this kernel may differ from
:meth:`GaloisField.matmul_reference` in speed, never in value.  The
differential suite under ``tests/property`` holds it to bit-identity; a
speed-up edits this module, never the reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.galois.field import GaloisField

__all__ = ["matmul_blocks"]

#: Products below this many terms (``r * s * B * c``) skip the lanes,
#: whose table build and dispatch cost ~50-130 us whatever the size.  At
#: m <= 8 they take the small-product path (~1.5-2.5 ns per term), which
#: the lanes beat by >= 1.3x only from ~98k terms on ...
SMALL_TERMS = 3 << 15
#: ... and at m = 16 the reference's gather (~4 ns per term), which the
#: lanes beat from 16-32k terms on.  Both break-evens move with the host's
#: speed state, so each constant sits where the lanes win by >= 1.3x
#: (DESIGN.md section 16).
GATHER_TERMS = 3 << 14
#: ... and so do products with fewer output columns (``B * c``) than
#: this, however tall ``a`` is: every column of ``a`` costs a 256-entry
#: table that so few lookups cannot repay (matrix-vector products).
GATHER_COLUMNS = 32
#: Bytes of gathered table rows per block of output columns (L2-sized).
BLOCK_BYTES = 1 << 19
#: Bound on the bytes of lookup tables alive at once; taller coefficient
#: matrices are multiplied in several passes over their rows.
TABLE_BYTES = 1 << 22


def matmul_blocks(
    field: "GaloisField", a: np.ndarray, b3: np.ndarray
) -> np.ndarray:
    """``(r, s) @ (B, s, c) -> (B, r, c)`` over ``field``.

    ``a`` and ``b3`` are *validated* operands: already of ``field.dtype``
    and in range.  Shape normalisation (vector / matrix / batch) and
    observability live in :meth:`GaloisField.matmul`; this module contains
    arithmetic only.
    """
    dtype = field.dtype
    r, s = a.shape
    n_batch, _, c = b3.shape
    total = n_batch * c
    small = field.m <= 8
    if total < GATHER_COLUMNS or r * s * total < (
        SMALL_TERMS if small else GATHER_TERMS
    ):
        if small:
            return _matmul_small(field, a, b3)
        return field._matmul_gather(a, b3)
    lanes = 8 // dtype.itemsize
    positions = -(-field.m // 8)
    pass_words = max(1, TABLE_BYTES // (positions * 256 * s * 8))
    flat = b3.transpose(1, 0, 2).reshape(s, total)
    # the narrowest index arithmetic that cannot overflow: take() widens
    # to intp itself, much faster than numpy adds in intp
    index_dtype = np.promote_types(dtype, np.min_scalar_type(256 * s - 1))
    column = np.arange(s, dtype=index_dtype)[:, None]

    def table_rows(table: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``table[values[j, col] * s + j]`` as ``(s, cols, words)``."""
        index = np.multiply(values, s, dtype=index_dtype)
        index += column
        return table.take(index, axis=0)

    out = np.empty((n_batch, r, c), dtype=dtype)
    for r0 in range(0, r, pass_words * lanes):
        rows = a[r0:r0 + pass_words * lanes]
        words = -(-len(rows) // lanes)
        # 32-byte table rows hit numpy's fixed-size take copy; 24-byte
        # ones fall to a generic memcpy that gathers 1.7x slower
        words += words == 3
        tables = _tables(field, rows, words)
        acc = np.empty((total, words), dtype=np.uint64)
        block = max(64, BLOCK_BYTES // (s * words * 8))
        for c0 in range(0, total, block):
            chunk = flat[:, c0:c0 + block]
            if positions == 1:
                gathered = table_rows(tables[0], chunk)
            else:
                gathered = table_rows(tables[0], chunk & 0xFF)
                gathered ^= table_rows(tables[1], chunk >> 8)
            np.bitwise_xor.reduce(
                gathered, axis=0, out=acc[c0:c0 + block]
            )
        out[:, r0:r0 + len(rows)] = (
            acc.view(dtype)[:, :len(rows)]
            .reshape(n_batch, c, len(rows))
            .transpose(0, 2, 1)
        )
    return out


def _matmul_small(
    field: "GaloisField", a: np.ndarray, b3: np.ndarray
) -> np.ndarray:
    """``(r, s) @ (B, s, c)`` for ``m <= 8`` with one flat ``take``.

    Row ``x`` of the dense product table is ``x * y`` at column ``y``,
    so ``(a << m) | b`` is a flat ``uint16`` index into it (a 2-D fancy
    index costs ~3x more); the ``(B, r, s, c)`` products are XOR-reduced
    over ``s``.
    """
    index = np.left_shift(a, field.m, dtype=np.uint16)[None, :, :, None]
    products = field._mul_table.reshape(-1).take(index | b3[:, None])
    return np.bitwise_xor.reduce(products, axis=2)


def _tables(
    field: "GaloisField", rows: np.ndarray, words: int
) -> list[np.ndarray]:
    """Per byte position, ``(entries * s, words)`` packed product rows.

    Row ``v * s + j`` of table ``q`` is ``rows[:, j] * (v << 8q)``,
    one product per lane (value-major, so each XOR below runs over
    contiguous memory).
    """
    m = field.m
    dtype = field.dtype
    r, s = rows.shape
    cols = np.zeros((s, words * (8 // dtype.itemsize)), dtype=dtype)
    cols[:, :r] = rows.T
    mask = dtype.type(field.order - 1)
    reduce_term = dtype.type(field.primitive_poly & (field.order - 1))
    tables = []
    for low in range(0, m, 8):
        bits = min(8, m - low)
        table = np.empty((1 << bits, s, words), dtype=np.uint64)
        table[0] = 0
        for bit in range(bits):
            n = 1 << bit
            np.bitwise_xor(
                table[:n], cols.view(np.uint64), out=table[n:2 * n]
            )
            # x*2 = (x << 1) ^ (reduce if x's top bit is set)
            cols = ((cols << 1) & mask) ^ (
                (cols >> (m - 1)) * reduce_term
            )
        tables.append(table.reshape(-1, words))
    return tables
