"""Pluggable GF-kernel backends behind a string-keyed registry.

The RSE hot path is one operation: the batched field matrix product
``(r, s) @ (B, s, c) -> (B, r, c)`` (see :meth:`GaloisField.matmul`).
This module makes the *kernel* that computes it swappable the same way
``repro.fec.registry`` makes the erasure code swappable: backends are
registered under plain string names, selected process-wide (``set_backend``,
the ``REPRO_GF_BACKEND`` environment variable, the experiments CLI's
``--gf-backend`` flag) or per call (``field.matmul(..., backend=...)``), and
every registered backend is held to bit-identity with the ``numpy``
reference oracle by the conformance suite in
``tests/property/test_prop_gf_backends.py``.

Backends
--------
``numpy``
    The PR-1 reference path: the shape heuristic over the table-gather and
    nibble-sliced kernels that live on :class:`GaloisField`.  This is the
    *oracle* — every other backend must reproduce its outputs bit for bit.
``packed``
    The default.  Output rows ride the byte lanes of ``uint64`` words:
    per column of the coefficient matrix a table holds, for every value of
    one symbol byte, the products with up to ``8 // itemsize`` rows per
    word, so one row gather yields that many finished output symbols.
    The tables are rebuilt per call from ``m`` doublings and ``m`` XORs
    (multiplying by a constant is GF(2)-linear); nothing is cached.
    Every field is supported; products too small to repay the table build
    run the oracle's own gather kernel.

The oracle contract (DESIGN.md section 16): backends may differ in speed,
never in value.  A backend that cannot handle a field says so via
:meth:`GFBackend.supports`, and :meth:`GaloisField.matmul` silently falls
back to the oracle for that call (counted on ``galois.backend_fallbacks``)
— selection must never change results or raise mid-encode.  Both built-in
backends support every field, so the counter stays 0 unless a registered
extension restricts itself.
"""

from __future__ import annotations

import abc
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, ClassVar, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.galois.field import GaloisField

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "GFBackend",
    "register_backend",
    "backend_names",
    "get_backend_class",
    "backend",
    "active_backend",
    "set_backend",
    "reset_backend",
    "use_backend",
    "temporary_backend",
]

#: Backend used when nothing is selected.
DEFAULT_BACKEND = "packed"

#: Environment variable consulted by :func:`active_backend` when no backend
#: has been selected programmatically.  Crosses process boundaries, so
#: campaign / sharded-MC workers inherit the supervisor's selection.
ENV_BACKEND = "REPRO_GF_BACKEND"


_REGISTRY: dict[str, type["GFBackend"]] = {}
_INSTANCES: dict[str, "GFBackend"] = {}

#: Explicit process-wide selection; ``None`` defers to :data:`ENV_BACKEND`.
_ACTIVE: "GFBackend | None" = None


class GFBackend(abc.ABC):
    """One implementation of the batched GF matrix-product kernel.

    Subclasses implement :meth:`matmul_blocks` over *validated* operands:
    ``a`` is a C-ordered ``(r, s)`` coefficient matrix and ``b3`` a
    ``(B, s, c)`` symbol batch, both already of ``field.dtype`` and in
    range.  Shape normalisation (vector / matrix / batch), observability
    and fallback all live in :meth:`GaloisField.matmul`; backends contain
    arithmetic only.
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = "abstract"

    def supports(self, field: "GaloisField") -> bool:
        """Whether this backend implements kernels for ``field``.

        Unsupported fields silently fall back to the oracle at the call
        site — the selection knob must never change results.
        """
        return True

    @abc.abstractmethod
    def matmul_blocks(
        self, field: "GaloisField", a: np.ndarray, b3: np.ndarray
    ) -> np.ndarray:
        """``(r, s) @ (B, s, c) -> (B, r, c)`` over ``field``."""

    def scale_accumulate(
        self, field: "GaloisField", acc: np.ndarray, c: int, v: np.ndarray
    ) -> None:
        """In-place ``acc ^= c * v``; default delegates to the field tables.

        Backends with a cheaper constant-times-vector path override this;
        the conformance suite holds every override to bit-identity with
        the oracle.
        """
        field._scale_accumulate_reference(acc, c, v)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<GFBackend {self.name}>"


def register_backend(cls: type[GFBackend]) -> type[GFBackend]:
    """Class decorator: register ``cls`` under its :attr:`~GFBackend.name`.

    Re-registering the same class is a no-op (module reloads); claiming an
    existing name with a different class is an error.
    """
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name or name == "abstract":
        raise ValueError(
            f"backend class {cls.__name__} must define a non-empty `name`"
        )
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"backend name {name!r} already registered by {existing.__name__}"
        )
    _REGISTRY[name] = cls
    return cls


def backend_names() -> list[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def get_backend_class(name: str) -> type[GFBackend]:
    """The backend class registered under ``name`` (typo-friendly KeyError)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown GF backend {name!r}; registered backends: "
            f"{backend_names()}"
        ) from None


def backend(name: str) -> GFBackend:
    """The shared instance of backend ``name`` (constructed on first use).

    Raises :exc:`KeyError` for a name that was never registered.
    """
    cls = get_backend_class(name)
    instance = _INSTANCES.get(name)
    if instance is None or type(instance) is not cls:
        instance = cls()
        _INSTANCES[name] = instance
    return instance


def active_backend() -> GFBackend:
    """The backend hot calls use when none is passed explicitly.

    Resolution order: a programmatic :func:`set_backend` selection, then
    the :data:`ENV_BACKEND` environment variable, then :data:`DEFAULT_BACKEND`.
    A bad environment value fails loudly here rather than silently running
    the wrong kernel.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    name = os.environ.get(ENV_BACKEND, "").strip() or DEFAULT_BACKEND
    _ACTIVE = backend(name)
    return _ACTIVE


def set_backend(name: str) -> GFBackend:
    """Select the process-wide backend; returns the instance selected."""
    global _ACTIVE
    _ACTIVE = backend(name)
    return _ACTIVE


def reset_backend() -> None:
    """Drop the programmatic selection (environment/default applies again)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def use_backend(name: str) -> Iterator[GFBackend]:
    """Select backend ``name`` for the duration of a ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = backend(name)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


@contextmanager
def temporary_backend(cls: type[GFBackend]) -> Iterator[type[GFBackend]]:
    """Register ``cls`` for the duration of a ``with`` block (tests only).

    The conformance suite uses this to prove it has teeth: a deliberately
    broken backend is registered, the battery is run against it, and the
    registry is restored afterwards even if the battery (correctly) fails.
    """
    name = cls.name
    previous = _REGISTRY.get(name)
    if previous is not None and previous is not cls:
        raise ValueError(f"backend name {name!r} already registered")
    register_backend(cls)
    try:
        yield cls
    finally:
        if previous is None:
            _REGISTRY.pop(name, None)
        else:
            _REGISTRY[name] = previous
        _INSTANCES.pop(name, None)
        global _ACTIVE
        if _ACTIVE is not None and _ACTIVE.name == name:
            _ACTIVE = None


# ----------------------------------------------------------------------
# numpy: the PR-1 reference oracle
# ----------------------------------------------------------------------
@register_backend
class NumpyBackend(GFBackend):
    """The reference path: PR 1's shape heuristic over gather / nibble-sliced.

    Every other backend is conformance-tested against this one, and every
    unsupported-field call falls back to it, so its outputs define
    correctness for the whole registry.
    """

    name = "numpy"

    def matmul_blocks(
        self, field: "GaloisField", a: np.ndarray, b3: np.ndarray
    ) -> np.ndarray:
        r, s = a.shape
        n_batch, _, c = b3.shape
        # The sliced kernel pays a fixed cost (bit planes + nibble tables)
        # per call; it only wins once the r*s*B selection work amortises it
        # and the rows are long enough for word-wide XORs to matter.
        row_bytes = c * field.dtype.itemsize
        if r >= 4 and row_bytes >= 256 and r * s * n_batch >= 48:
            return field._matmul_sliced(a, b3)
        return field._matmul_gather(a, b3)


# ----------------------------------------------------------------------
# packed: output rows in the lanes of uint64 words (the default)
# ----------------------------------------------------------------------
@register_backend
class PackedBackend(GFBackend):
    """Packed-lane kernel: one row gather finishes a word of output rows.

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

    The operands are only read (receivers pass read-only payload views).
    """

    name = "packed"

    #: Products below this many terms (``r * s * B * c``, per byte of symbol
    #: width) run the oracle's gather kernel: the table build and dispatch
    #: cost ~50 us whatever the size, which gather's ~4 ns per term only
    #: repays from 13-17k terms on at m = 8 and 16-32k at m = 16 (measured
    #: break-even; it moves with the host's speed state, so the constant
    #: sits where the lanes win by >= 1.3x; DESIGN.md section 16).
    _GATHER_TERMS = 3 << 13
    #: ... and so do products with fewer output columns (``B * c``) than
    #: this, however tall ``a`` is: every column of ``a`` costs a 256-entry
    #: table that so few lookups cannot repay (matrix-vector products).
    _GATHER_COLUMNS = 32
    #: Bytes of gathered table rows per block of output columns (L2-sized).
    _BLOCK_BYTES = 1 << 19
    #: Bound on the bytes of lookup tables alive at once; taller coefficient
    #: matrices are multiplied in several passes over their rows.
    _TABLE_BYTES = 1 << 22

    def matmul_blocks(
        self, field: "GaloisField", a: np.ndarray, b3: np.ndarray
    ) -> np.ndarray:
        dtype = field.dtype
        r, s = a.shape
        n_batch, _, c = b3.shape
        total = n_batch * c
        if (
            total < self._GATHER_COLUMNS
            or r * s * total < self._GATHER_TERMS * dtype.itemsize
        ):
            return field._matmul_gather(a, b3)
        lanes = 8 // dtype.itemsize
        positions = -(-field.m // 8)
        pass_words = max(1, self._TABLE_BYTES // (positions * 256 * s * 8))
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
            tables = self._tables(field, rows, words)
            acc = np.empty((total, words), dtype=np.uint64)
            block = max(64, self._BLOCK_BYTES // (s * words * 8))
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

    @staticmethod
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
