"""Systematic Reed-Solomon Erasure (RSE) codec.

This is the coder the paper builds on (Section 2): McAuley's burst-erasure
Reed-Solomon code, in the software formulation of Rizzo.  A *transmission
group* (TG) of ``k`` equal-length data packets is extended with ``h`` parity
packets; a receiver that obtains **any** ``k`` of the ``n = k + h`` packets of
the FEC block reconstructs all ``k`` data packets.

:class:`RSECodec` is the reference (and default) implementation of the
:class:`~repro.fec.code.ErasureCode` contract — the only MDS code in the
registry with ``h > 1`` support; the cheap-decode alternatives live in
``repro.fec.{xor,rect,lrc}``.  ``DecodeError``, ``CodecStats`` and
``max_block_length`` moved to ``repro.fec.code`` and are re-exported here
for compatibility.

Design notes
------------
* The code is *systematic*: the first ``k`` packets of a block are the data
  packets verbatim, so a receiver that loses nothing does no decoding at all,
  and the decode cost is proportional to the number of lost data packets —
  both properties the paper calls out in Section 2.1.
* Packets longer than one field symbol are handled exactly as Section 2.2
  describes: a ``P``-byte packet is treated as ``S = P / (m/8)`` parallel
  symbols and ``S`` independent RSE codes run in lockstep.  With numpy this
  is simply vectorising every field operation over the packet axis.
* The default field is GF(2^8) (``m = 8``), matching Rizzo's software coder;
  GF(2^16) is available when blocks longer than 255 packets are required.

Example
-------
>>> codec = RSECodec(k=4, h=2)
>>> data = [bytes([i] * 16) for i in range(4)]
>>> parities = codec.encode(data)
>>> received = {0: data[0], 2: data[2], 4: parities[0], 5: parities[1]}
>>> codec.decode(received) == data
True
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from threading import Lock

import numpy as np

from repro import obs
from repro.fec.code import (
    CodecStats,
    CodeGeometryError,
    DecodeError,
    ErasureCode,
    max_block_length,
)
from repro.fec.registry import register_codec
from repro.galois.field import GF256, GaloisField
from repro.galois.matrix import invert, systematic_generator

__all__ = [
    "RSECodec",
    "DecodeError",
    "CodecStats",
    "CodeGeometryError",
    "InverseCache",
    "default_inverse_cache",
    "max_block_length",
]


@lru_cache(maxsize=128)
def _cached_generator(field: GaloisField, k: int, n: int) -> np.ndarray:
    generator = systematic_generator(field, k, n)
    generator.setflags(write=False)
    return generator


class InverseCache:
    """Bounded LRU of ``(e, k)`` decode plans, one per erasure pattern.

    Keys are ``(field, k, n, use)`` where ``use`` is the sorted tuple of
    block indices whose generator rows form the decode submatrix — i.e.
    the erasure pattern.  The value is the ``e`` rows of that submatrix's
    inverse which rebuild the ``e`` erased data packets (the only rows a
    decode reads), so an entry holds ``e * k`` symbols.  Across 10^6
    simulated receivers and repeated MC trials the same few patterns recur
    constantly; a miss costs O(e^3 + e^2 * (k - e)) field operations (see
    :meth:`RSECodec._decode_coefficients`), a hit a dictionary lookup.
    Cached arrays are frozen read-only; the field in the key keeps codecs
    over different fields (or different ``(k, n)``) from ever colliding.
    """

    def __init__(self, maxsize: int = 512):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.evictions = 0
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._lock = Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get(self, key: tuple) -> np.ndarray | None:
        with self._lock:
            inverse = self._entries.get(key)
            if inverse is not None:
                self._entries.move_to_end(key)
            return inverse

    def put(self, key: tuple, inverse: np.ndarray) -> np.ndarray:
        """Store ``inverse`` (frozen read-only); returns the stored array."""
        inverse.setflags(write=False)
        with self._lock:
            self._entries[key] = inverse
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return inverse

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.evictions = 0


#: Process-wide cache shared by codecs that don't bring their own; the key
#: includes the field and code geometry, so sharing is always safe.
_DEFAULT_INVERSE_CACHE = InverseCache(maxsize=512)


def default_inverse_cache() -> InverseCache:
    """The shared inverse cache used by codecs constructed without one."""
    return _DEFAULT_INVERSE_CACHE


@register_codec
class RSECodec(ErasureCode):
    """Encoder/decoder for one ``(k, k + h)`` systematic RSE code.

    Parameters
    ----------
    k:
        Transmission-group size (number of data packets per block).
    h:
        Number of parity packets per block.
    field:
        Galois field to operate in; defaults to GF(2^8).
    inverse_cache:
        Bounded LRU for per-erasure-pattern decode plans; defaults to the
        process-wide shared cache (safe: keys carry field and geometry).

    The codec is stateless apart from :attr:`stats`; one instance can safely
    encode and decode any number of blocks.
    """

    name = "rse"
    is_mds = True
    systematic = True

    def __init__(
        self,
        k: int,
        h: int,
        field: GaloisField = GF256,
        inverse_cache: InverseCache | None = None,
    ):
        super().__init__(k, h, field=field)
        self.generator = _cached_generator(field, k, self.n)
        self.inverse_cache = (
            inverse_cache if inverse_cache is not None else _DEFAULT_INVERSE_CACHE
        )
        # scale-accumulate operations per encoded block: one per nonzero
        # parity coefficient (systematic generators are dense, but count
        # honestly rather than assuming h * k)
        self._parity_ops = int(np.count_nonzero(self.generator[self.k:]))

    def _observe_encode(self, n_blocks: int) -> None:
        """Registry-side mirror of one encode call (telemetry enabled)."""
        labels = {"k": self.k, "h": self.h}
        obs.counter("rse.blocks_encoded", **labels).inc(n_blocks)
        obs.counter("rse.parities_produced", **labels).inc(n_blocks * self.h)
        obs.counter("rse.symbols_multiplied", **labels).inc(
            n_blocks * self._parity_ops
        )

    # ------------------------------------------------------------------
    # encode
    # ------------------------------------------------------------------
    def encode_symbols(self, data: np.ndarray) -> np.ndarray:
        """Encode a ``(k, S)`` symbol matrix; returns the ``(h, S)`` parities.

        The parity block is one batched GF matrix product
        ``G[k:] @ data`` — a table gather plus XOR reduction instead of the
        ``h * k`` Python-level loop of :meth:`encode_symbols_scalar`.
        """
        data = self._check_symbols(data, rows_axis=0)
        with obs.span("rse.encode", k=self.k, h=self.h):
            parities = self.field.matmul(self.generator[self.k:], data)
        self.stats.packets_encoded += self.k
        self.stats.parities_produced += self.h
        self.stats.symbols_multiplied += self._parity_ops
        if obs.is_enabled():
            self._observe_encode(1)
        return parities

    def encode_blocks(self, data: np.ndarray) -> np.ndarray:
        """Encode a ``(B, k, S)`` batch of blocks; returns ``(B, h, S)``.

        All ``B`` transmission groups share the generator matrix, so the
        whole batch is a single broadcast matrix product — the sender-side
        pre-encoding fast path.
        """
        if data.ndim != 3:
            raise ValueError(
                f"expected a (B, k, S) symbol batch, got shape {data.shape}"
            )
        data = self._check_symbols(data, rows_axis=1)
        with obs.span("rse.encode", k=self.k, h=self.h, blocks=data.shape[0]):
            parities = self.field.matmul(self.generator[self.k:], data)
        n_blocks = data.shape[0]
        self.stats.packets_encoded += n_blocks * self.k
        self.stats.parities_produced += n_blocks * self.h
        self.stats.symbols_multiplied += n_blocks * self._parity_ops
        if obs.is_enabled():
            self._observe_encode(n_blocks)
        return parities

    def encode_symbols_scalar(self, data: np.ndarray) -> np.ndarray:
        """Reference scalar encode: the row-by-row loop the batched kernel
        replaced.  Kept for differential tests and benchmarks; bit-identical
        to :meth:`encode_symbols` (including the stats accounting)."""
        data = self._check_symbols(data, rows_axis=0)
        parities = np.zeros((self.h, data.shape[1]), dtype=self.field.dtype)
        parity_rows = self.generator[self.k:]
        operations = 0
        for j in range(self.h):
            acc = parities[j]
            for i in range(self.k):
                coefficient = int(parity_rows[j, i])
                if coefficient:
                    operations += 1
                self.field.scale_accumulate(acc, coefficient, data[i])
        self.stats.packets_encoded += self.k
        self.stats.parities_produced += self.h
        self.stats.symbols_multiplied += operations
        return parities

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------
    def _decode_plan(
        self, rows: dict[int, np.ndarray]
    ) -> tuple[list[int], list[int], list[int]]:
        """Pick the k equations for a decode: (have_data, missing, use).

        Both symbol-level decoders are public, so indices are checked here
        and not only in the bytes-level ``decode()``: ``-1`` would silently
        alias the last parity row of the generator.
        """
        if rows and (min(rows) < 0 or max(rows) >= self.n):
            raise ValueError(
                f"packet index out of range for block length n={self.n}: "
                f"{sorted(rows)}"
            )
        have_data = [i for i in rows if i < self.k]
        missing = [i for i in range(self.k) if i not in rows]
        parities = sorted(i for i in rows if i >= self.k)
        needed = self.k - len(have_data)
        if len(parities) < needed:
            raise DecodeError(
                f"unrecoverable block: have {len(have_data)} data + "
                f"{len(parities)} parity packets, need {self.k} total"
            )
        use = sorted(have_data) + parities[:needed]
        return have_data, missing, use

    def _decode_coefficients(
        self, have_data: list[int], missing: list[int], use: list[int]
    ) -> np.ndarray:
        """The ``(e, k)`` rows of ``inv(generator[use])`` that rebuild
        ``missing``, via the erasure-pattern cache.

        ``generator[use]`` stacks the surviving identity rows ``H`` on the
        chosen parity rows ``J``, so with ``A = P[J, missing]`` those rows
        are ``[inv(A) @ P[J, H] | inv(A)]`` (columns in ``use`` order): a
        miss inverts the ``e x e`` block ``A`` — the Schur complement of
        the identity rows — instead of the whole ``k x k`` submatrix.
        """
        key = (self.field, self.k, self.n, tuple(use))
        coefficients = self.inverse_cache.get(key)
        if coefficients is not None:
            self.stats.decode_cache_hits += 1
            if obs.is_enabled():
                obs.counter("rse.decode_cache", outcome="hit").inc()
            return coefficients
        self.stats.decode_cache_misses += 1
        if obs.is_enabled():
            obs.counter("rse.decode_cache", outcome="miss").inc()
        survivors = len(have_data)
        parity_rows = self.generator[use[survivors:]]  # P[J], (e, k)
        erased_inverse = invert(self.field, parity_rows[:, missing])
        coefficients = np.empty(
            (len(missing), self.k), dtype=self.field.dtype
        )
        coefficients[:, survivors:] = erased_inverse
        if survivors:  # no data row survived: nothing to fold back in
            coefficients[:, :survivors] = self.field.matmul(
                erased_inverse, parity_rows[:, use[:survivors]]
            )
        return self.inverse_cache.put(key, coefficients)

    def decode_symbols(self, rows: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Symbol-level decode; returns ``{data_index: (S,) symbols}``.

        Only missing data packets are actually reconstructed (the Rizzo
        optimisation — cost proportional to the number of losses); received
        data rows are passed through.  The decode coefficients for the
        erasure pattern come from a bounded LRU (:class:`InverseCache`),
        so repeated patterns skip Gaussian elimination, and all missing
        packets are rebuilt in one batched matrix product.
        """
        have_data, missing, use = self._decode_plan(rows)
        out: dict[int, np.ndarray] = {i: rows[i] for i in have_data}
        if not missing:
            # the no-loss fast path stays untimed: nothing happens here
            return out

        with obs.span(
            "rse.decode", k=self.k, h=self.h, missing=len(missing)
        ):
            coefficients = self._decode_coefficients(have_data, missing, use)
            stacked = np.vstack([rows[i] for i in use])  # (k, S)
            reconstructed = self.field.matmul(coefficients, stacked)
        for row, data_index in zip(reconstructed, missing):
            out[data_index] = row
        self.stats.symbols_multiplied += int(np.count_nonzero(coefficients))
        self.stats.packets_decoded += len(missing)
        if obs.is_enabled():
            obs.counter(
                "rse.packets_reconstructed", k=self.k, h=self.h
            ).inc(len(missing))
        return out

    def decode_symbols_scalar(
        self, rows: dict[int, np.ndarray]
    ) -> dict[int, np.ndarray]:
        """Reference scalar decode: per-packet loop, no inverse cache.

        Always runs Gaussian elimination over the full ``(k, k)`` submatrix
        (the independent oracle for :meth:`_decode_coefficients`);
        bit-identical output (and stats accounting, cache counters aside)
        to :meth:`decode_symbols`."""
        have_data, missing, use = self._decode_plan(rows)
        out: dict[int, np.ndarray] = {i: rows[i] for i in have_data}
        if not missing:
            return out

        inverse = invert(self.field, self.generator[use])
        stacked = np.vstack([rows[i] for i in use])  # (k, S)
        for data_index in missing:
            coefficients = inverse[data_index]
            acc = np.zeros(stacked.shape[1], dtype=self.field.dtype)
            for c, row in zip(coefficients, stacked):
                coefficient = int(c)
                if coefficient:
                    self.stats.symbols_multiplied += 1
                self.field.scale_accumulate(acc, coefficient, row)
            out[data_index] = acc
        self.stats.packets_decoded += len(missing)
        return out

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RSECodec(k={self.k}, h={self.h}, GF(2^{self.field.m}))"
