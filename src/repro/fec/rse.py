"""Systematic Reed-Solomon Erasure (RSE) codec.

This is the coder the paper builds on (Section 2): McAuley's burst-erasure
Reed-Solomon code, in the software formulation of Rizzo.  A *transmission
group* (TG) of ``k`` equal-length data packets is extended with ``h`` parity
packets; a receiver that obtains **any** ``k`` of the ``n = k + h`` packets of
the FEC block reconstructs all ``k`` data packets.

:class:`RSECodec` is the tree's only erasure code.  The paper's loss
recovery assumes an ideal MDS code, and no non-MDS code of equal
redundancy beats it on E[M], so there is no codec interface to plug
others into.  :func:`create_codec` is the one place a code *name* (the
``codec`` field of the wire's session announce) becomes a codec; it
accepts ``"rse"`` only.  ``DecodeError``, ``CodecStats`` and
``max_block_length`` live in ``repro.fec.code`` and are re-exported here.

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

from bisect import bisect_left
from collections import OrderedDict
from functools import lru_cache
from threading import Lock

import numpy as np

from repro import obs
from repro.fec.code import (
    CodecStats,
    CodeGeometryError,
    DecodeError,
    max_block_length,
)
from repro.galois.field import GF256, GaloisField
from repro.galois.matrix import invert, systematic_generator

__all__ = [
    "RSECodec",
    "create_codec",
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


class RSECodec:
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

    Impossible geometry raises :exc:`CodeGeometryError` before any work.
    The codec is stateless apart from :attr:`stats` and its caches; one
    instance can safely encode and decode any number of blocks.
    """

    def __init__(
        self,
        k: int,
        h: int,
        field: GaloisField = GF256,
        inverse_cache: InverseCache | None = None,
    ):
        if k < 1:
            raise CodeGeometryError(
                f"transmission group size k must be >= 1, got {k}"
            )
        if h < 0:
            raise CodeGeometryError(f"parity count h must be >= 0, got {h}")
        limit = max_block_length(field)
        if k + h > limit:
            raise CodeGeometryError(
                f"block length n={k + h} exceeds limit {limit} "
                f"for GF(2^{field.m}); use a wider field"
            )
        self.k = k
        self.h = h
        self.n = k + h
        self.field = field
        self._symbol_bytes = field.dtype.itemsize
        # The symbol range scan only matters when the dtype has headroom
        # above the field order (e.g. uint8 symbols for GF(2^4)); decided
        # once here because _to_symbols runs per packet on the hot path.
        self._scan_symbol_range = field.order <= np.iinfo(field.dtype).max
        self.stats = CodecStats()
        self.generator = _cached_generator(field, k, self.n)
        self.inverse_cache = (
            inverse_cache if inverse_cache is not None else _DEFAULT_INVERSE_CACHE
        )
        # scale-accumulate operations of parities 0..j-1 at index j: one
        # per nonzero parity coefficient (systematic generators are dense,
        # but count honestly rather than assuming h * k)
        self._parity_ops = [0] + np.cumsum(
            np.count_nonzero(self.generator[self.k:], axis=1)
        ).tolist()

    # ------------------------------------------------------------------
    # packet <-> symbol conversion
    # ------------------------------------------------------------------
    # Byte payloads map onto field symbols as in Section 2.2: m = 8 uses
    # one byte per symbol, m = 16 two bytes, m = 4 packs two symbols per
    # byte (nibbles).  Other widths support the symbol-level API only.

    def _to_symbols(
        self, packet: bytes | bytearray | memoryview | np.ndarray
    ) -> np.ndarray:
        if isinstance(packet, np.ndarray):
            arr = np.ascontiguousarray(packet, dtype=self.field.dtype)
            # For full-range fields like GF(2^8)-over-uint8 every
            # representable value is a valid symbol and scanning would touch
            # every byte of every packet on the encode hot path for nothing.
            # Aligned same-dtype inputs pass through ascontiguousarray
            # without a copy, keeping this branch zero-copy end to end.
            if (
                self._scan_symbol_range
                and arr.size
                and int(arr.max()) >= self.field.order
            ):
                raise ValueError(
                    f"symbol value exceeds GF(2^{self.field.m}) range"
                )
            return arr
        raw = bytes(packet)
        self._byte_symbols(len(raw))
        if self.field.m == 4:
            octets = np.frombuffer(raw, dtype=np.uint8)
            symbols = np.empty(2 * octets.size, dtype=np.uint8)
            symbols[0::2] = octets >> 4
            symbols[1::2] = octets & 0x0F
            return symbols
        return np.frombuffer(raw, dtype=self.field.dtype)

    def _byte_symbols(self, length: int) -> int:
        """Symbols in a ``length``-byte payload; rejects unconvertible ones."""
        m = self.field.m
        if m == 4:
            return 2 * length
        if m not in (8, 16):
            raise ValueError(
                f"byte payloads are only supported for m in (4, 8, 16); "
                f"use encode_symbols/decode_symbols for GF(2^{m})"
            )
        if length % self._symbol_bytes:
            raise ValueError(
                f"packet length {length} is not a multiple of the "
                f"{self._symbol_bytes}-byte symbol size of GF(2^{m})"
            )
        return length // self._symbol_bytes

    def _to_bytes(self, symbols: np.ndarray) -> bytes:
        if self.field.m == 4:
            symbols = symbols.astype(np.uint8, copy=False)
            octets = (symbols[0::2] << 4) | symbols[1::2]
            return octets.tobytes()
        return symbols.astype(self.field.dtype, copy=False).tobytes()

    def _stack(self, data_packets: list[bytes]) -> np.ndarray:
        if len(data_packets) != self.k:
            raise ValueError(
                f"expected exactly k={self.k} data packets, got {len(data_packets)}"
            )
        rows = [self._to_symbols(p) for p in data_packets]
        lengths = {row.shape[0] for row in rows}
        if len(lengths) != 1:
            raise ValueError(
                f"all packets in a transmission group must have equal length; "
                f"saw symbol counts {sorted(lengths)}"
            )
        return np.vstack(rows)

    def _check_symbols(self, data: np.ndarray, rows_axis: int) -> np.ndarray:
        """Validate a symbol array's row count and value range."""
        if data.shape[rows_axis] != self.k:
            raise ValueError(
                f"expected k={self.k} rows, got {data.shape[rows_axis]}"
            )
        # dtypes wider than the field (e.g. uint8 for GF(2^4)) can smuggle
        # out-of-range symbols into the lookup tables; reject them here
        if self._scan_symbol_range:
            data = np.ascontiguousarray(data, dtype=self.field.dtype)
            if data.size and int(data.max()) >= self.field.order:
                raise ValueError(
                    f"symbol value exceeds GF(2^{self.field.m}) range"
                )
        return np.asarray(data, dtype=self.field.dtype)

    def _count_encode(self, n_blocks: int, start: int, stop: int) -> None:
        """Charge ``n_blocks`` encodes of parities ``start..stop-1``."""
        ops = n_blocks * (self._parity_ops[stop] - self._parity_ops[start])
        self.stats.packets_encoded += n_blocks * self.k
        self.stats.parities_produced += n_blocks * (stop - start)
        self.stats.symbols_multiplied += ops
        if obs.is_enabled():
            labels = {"k": self.k, "h": self.h}
            obs.counter("rse.blocks_encoded", **labels).inc(n_blocks)
            obs.counter("rse.parities_produced", **labels).inc(
                n_blocks * (stop - start)
            )
            obs.counter("rse.symbols_multiplied", **labels).inc(ops)

    # ------------------------------------------------------------------
    # encode
    # ------------------------------------------------------------------
    def encode_symbols(
        self, data: np.ndarray, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Encode a ``(k, S)`` symbol matrix; returns parities
        ``start..stop-1`` (all ``h`` by default) as ``(stop - start, S)``.

        The parity block is one batched GF matrix product
        ``G[k + start:k + stop] @ data`` — a table gather plus XOR
        reduction instead of the ``h * k`` Python-level loop of
        :meth:`encode_symbols_scalar` — so a sender that needs only some
        parities pays only for their rows.
        """
        stop = self.h if stop is None else stop
        if not 0 <= start <= stop <= self.h:
            raise ValueError(
                f"parity rows [{start}, {stop}) outside 0..{self.h}"
            )
        data = self._check_symbols(data, rows_axis=0)
        rows = self.generator[self.k + start:self.k + stop]
        with obs.span("rse.encode", k=self.k, h=self.h):
            parities = self.field.matmul(rows, data)
        self._count_encode(1, start, stop)
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
        self._count_encode(data.shape[0], 0, self.h)
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

    def encode(
        self, data_packets: list[bytes], start: int = 0, stop: int | None = None
    ) -> list[bytes]:
        """Produce the ``h`` parity packets for ``k`` equal-length packets,
        or only parities ``start..stop-1`` of them.

        The data packets followed by the returned parities form the FEC
        block ``d_1 .. d_k, p_1 .. p_h`` of Section 2.1.
        """
        symbols = self.encode_symbols(self._stack(data_packets), start, stop)
        return [self._to_bytes(row) for row in symbols]

    def encode_many(self, groups: list[list[bytes]]) -> list[list[bytes]]:
        """Byte-level batch encode: parities for many equal-shape groups."""
        if not groups:
            return []
        stacked = np.stack([self._stack(group) for group in groups])
        parities = self.encode_blocks(stacked)
        return [
            [self._to_bytes(row) for row in block] for block in parities
        ]

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
        indices = sorted(rows)
        if indices and (indices[0] < 0 or indices[-1] >= self.n):
            raise ValueError(
                f"packet index out of range for block length n={self.n}: "
                f"{indices}"
            )
        k = self.k
        held = bisect_left(indices, k)
        have_data, parities = indices[:held], indices[held:]
        needed = k - held
        if len(parities) < needed:
            raise DecodeError(
                f"unrecoverable block: have {held} data + "
                f"{len(parities)} parity packets, need {k} total"
            )
        missing = [i for i in range(k) if i not in rows]
        return have_data, missing, have_data + parities[:needed]

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
            stacked = np.array([rows[i] for i in use])  # (k, S)
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

    def decode(self, received: dict[int, bytes]) -> list[bytes]:
        """Reconstruct the ``k`` data packets from the received packets.

        Parameters
        ----------
        received:
            Mapping from block index (``0..n-1``; indices ``>= k`` are
            parities) to packet payload: ``bytes``-like or a symbol array.
            Any ``k`` entries decode.

        Returns
        -------
        The ``k`` data packets, in order, as ``bytes``.  Only lost data
        packets are rebuilt; a received ``bytes`` data packet comes back
        as it is, without being converted to symbols and back.

        Raises
        ------
        DecodeError
            If fewer than ``k`` distinct packets were supplied.
        """
        if not received:
            raise DecodeError("no packets received")
        indices = sorted(received)
        if indices[0] < 0 or indices[-1] >= self.n:
            raise ValueError(
                f"packet index out of range for block length n={self.n}: {indices}"
            )
        k = self.k
        if len(indices) < k:
            raise DecodeError(
                f"need at least k={k} packets to decode, got {len(indices)}"
            )
        payloads = [received[i] for i in indices]
        if set(map(type, payloads)) != {bytes}:
            payloads = list(map(self._as_bytes, payloads))
        if len(set(map(len, payloads))) != 1:
            raise ValueError("received packets have inconsistent lengths")
        symbols = self._byte_symbols(len(payloads[0]))
        # the first k indices are the equations a decode uses: every data
        # packet held, then the lowest parities
        if indices[k - 1] == k - 1:
            return payloads[:k]
        use = indices[:k]
        stacked = self._to_symbols(b"".join(payloads[:k])).reshape(k, symbols)
        decoded = self.decode_symbols(dict(zip(use, stacked)))
        held = dict(zip(use, payloads))
        return [
            held[i] if i in held else self._to_bytes(decoded[i])
            for i in range(k)
        ]

    def _as_bytes(
        self, packet: bytes | bytearray | memoryview | np.ndarray
    ) -> bytes:
        """A payload as ``bytes``; a symbol array is range-checked first."""
        if isinstance(packet, np.ndarray):
            return self._to_bytes(self._to_symbols(packet))
        return bytes(packet)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RSECodec(k={self.k}, h={self.h}, GF(2^{self.field.m}))"


def create_codec(name: str, k: int, h: int, **kwargs) -> RSECodec:
    """The codec a session announce names, for geometry ``(k, h)``.

    ``"rse"`` is the only code; any other name raises :exc:`KeyError`, an
    impossible geometry :exc:`CodeGeometryError`.  Extra keyword arguments
    (``field=``, ``inverse_cache=``) go to :class:`RSECodec`.
    """
    if name != "rse":
        raise KeyError(f"unknown codec {name!r}; the only code is 'rse'")
    return RSECodec(k, h, **kwargs)
