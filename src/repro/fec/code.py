"""The code-agnostic erasure-code contract (``ErasureCode``).

The paper's analysis assumes an ideal ``(k, n)`` MDS code realised by RSE,
but the comparison the ROADMAP calls for — cheap-decode alternatives such as
plain XOR parity, rectangular row/column codes, or locally-repairable codes —
needs every consumer of ``RSECodec`` to work against an *interface* instead.
This module defines that interface plus the pieces every implementation
shares:

* :class:`ErasureCode` — the abstract base: geometry (``k``, ``h``, ``n``),
  capability flags (:attr:`~ErasureCode.is_mds`,
  :attr:`~ErasureCode.systematic`, :meth:`~ErasureCode.max_n`), the byte- and
  symbol-level encode/decode API, decodability predicates, and per-op cost
  accounting on :class:`CodecStats`.
* :class:`CodecStats` — cumulative operation counters (moved here from
  ``repro.fec.rse``; re-exported there for compatibility).
* :exc:`DecodeError` — a block cannot be decoded from the packets at hand.
* :exc:`CodeGeometryError` — an impossible ``(k, h)`` geometry, rejected
  uniformly by every codec *before* construction does any work.

Honest recoverability
---------------------
Non-MDS codes (rectangular, LRC) cannot recover every ``>= k``-packet subset
an RS code would.  The contract is *honesty*, not MDS-ness: a codec must
report exactly the patterns it can decode via
:meth:`~ErasureCode.decodable_from` / :meth:`~ErasureCode.decodable_mask`,
must decode every pattern it claims, and must raise :exc:`DecodeError` on
every pattern it does not — never return wrong data silently.  The
conformance suite (``tests/property/test_prop_erasure_conformance.py``)
enforces this for every registered codec.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar, Iterable

import numpy as np

from repro.galois.field import GF256, GaloisField

__all__ = [
    "ErasureCode",
    "CodecStats",
    "DecodeError",
    "CodeGeometryError",
    "max_block_length",
]

#: Bound on the per-codec memo of non-MDS decodability verdicts.  Patterns
#: recur heavily in MC runs (same few erasure shapes across 10^6 receivers),
#: so a small memo captures nearly all lookups.
_DECODABLE_MEMO_LIMIT = 1 << 16


class DecodeError(ValueError):
    """Raised when a block cannot be decoded from the received packets.

    This covers both "fewer than ``k`` packets" and, for non-MDS codes,
    "``>= k`` packets but an unrecoverable erasure pattern".
    """


class CodeGeometryError(ValueError):
    """Raised for an impossible ``(k, h)`` geometry.

    Every codec raises this (and only this) for geometry problems —
    non-positive ``k``, negative ``h``, a block length the field cannot
    address, or a shape the particular code cannot realise.  It subclasses
    :exc:`ValueError` so pre-existing ``except ValueError`` callers keep
    working.
    """


def max_block_length(field: GaloisField) -> int:
    """Longest FEC block ``n`` supported by ``field`` (``2^m - 1``)."""
    return field.order - 1


@dataclass
class CodecStats:
    """Cumulative operation counters, used by the Figure-1 benchmark.

    Attributes
    ----------
    packets_encoded:
        Number of *data* packets pushed through :meth:`ErasureCode.encode`.
    parities_produced:
        Number of parity packets produced.
    packets_decoded:
        Number of *lost data* packets reconstructed by
        :meth:`ErasureCode.decode` (receiving all data costs nothing for a
        systematic code).
    symbols_multiplied:
        Constant-times-packet GF scale-accumulate operations actually
        performed, i.e. one per *nonzero* coefficient met while encoding or
        reconstructing (zero coefficients do no work and are not charged;
        XOR accumulations count as coefficient-1 operations).
    decode_cache_hits:
        Decodes that reused a cached decode plan / inverted submatrix for
        their erasure pattern.
    decode_cache_misses:
        Decodes that had to derive the plan (Gaussian elimination for RSE).
    """

    packets_encoded: int = 0
    parities_produced: int = 0
    packets_decoded: int = 0
    symbols_multiplied: int = 0
    decode_cache_hits: int = 0
    decode_cache_misses: int = 0

    def reset(self) -> None:
        self.packets_encoded = 0
        self.parities_produced = 0
        self.packets_decoded = 0
        self.symbols_multiplied = 0
        self.decode_cache_hits = 0
        self.decode_cache_misses = 0


class ErasureCode(abc.ABC):
    """Abstract base for one ``(k, k + h)`` erasure code instance.

    Class attributes (the *capability flags* of the registry):

    * :attr:`name` — registry key (``"rse"``, ``"xor"``, ...).
    * :attr:`is_mds` — True iff **any** ``k`` of the ``n`` packets decode.
      Non-MDS codes must override :meth:`_pattern_decodable`.
    * :attr:`systematic` — True iff block indices ``0..k-1`` carry the data
      packets verbatim.  Non-systematic codes must override
      :meth:`encode_block`.

    Subclasses implement :meth:`encode_symbols` and :meth:`decode_symbols`
    (and :meth:`_pattern_decodable` when not MDS); the base class provides
    geometry validation, byte/symbol conversion, the byte-level
    encode/decode API, batching, and decodability masks on top.

    The codec is stateless apart from :attr:`stats` and internal caches; one
    instance can safely encode and decode any number of blocks.
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = "abstract"
    #: True iff any k of the n packets reconstruct the data.
    is_mds: ClassVar[bool] = False
    #: True iff block indices 0..k-1 are the data packets verbatim.
    systematic: ClassVar[bool] = True

    def __init__(self, k: int, h: int, field: GaloisField = GF256, **geometry):
        type(self).validate_geometry(k, h, field=field, **geometry)
        self.k = k
        self.h = h
        self.n = k + h
        self.field = field
        self._symbol_bytes = field.dtype.itemsize
        # The symbol range scan only matters when the dtype has headroom
        # above the field order (e.g. uint8 symbols for GF(2^4)); decided
        # once here because _to_symbols runs per packet on the hot path.
        self._scan_symbol_range = field.order <= np.iinfo(field.dtype).max
        self._decodable_memo: dict[tuple[int, ...], bool] = {}
        self.stats = CodecStats()

    # ------------------------------------------------------------------
    # geometry contract
    # ------------------------------------------------------------------
    @classmethod
    def max_n(cls, field: GaloisField = GF256) -> int:
        """Longest block length ``n`` this code supports over ``field``."""
        return max_block_length(field)

    @classmethod
    def validate_geometry(
        cls, k: int, h: int, *, field: GaloisField = GF256, **_: object
    ) -> None:
        """Reject impossible ``(k, h)`` with :exc:`CodeGeometryError`.

        Called before any construction work, and by the registry before
        instantiating a codec, so every implementation rejects bad shapes
        uniformly.  Subclasses extend this (``super().validate_geometry``)
        with code-specific constraints; extra keyword arguments mirror the
        codec constructor's optional parameters.
        """
        if k < 1:
            raise CodeGeometryError(
                f"transmission group size k must be >= 1, got {k}"
            )
        if h < 0:
            raise CodeGeometryError(f"parity count h must be >= 0, got {h}")
        n = k + h
        limit = cls.max_n(field=field)
        if n > limit:
            raise CodeGeometryError(
                f"block length n={n} exceeds limit {limit} "
                f"for GF(2^{field.m}); use a wider field"
            )

    @classmethod
    def nearest_h(cls, k: int, h: int) -> int:
        """Closest supported parity count to the requested ``h``.

        Codes with constrained geometry (XOR's single parity, the
        rectangular grid) override this so sweep drivers can clamp a
        requested ``(k, h)`` onto the code's lattice.  The default accepts
        ``h`` unchanged.
        """
        return h

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

    # ------------------------------------------------------------------
    # encode
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def encode_symbols(self, data: np.ndarray) -> np.ndarray:
        """Encode a ``(k, S)`` symbol matrix; returns the ``(h, S)`` parities.

        For non-systematic codes the ``h`` returned rows are the redundancy
        beyond the first ``k`` coded rows; use :meth:`encode_block` to obtain
        the full on-the-wire block.
        """

    def block_symbols(self, data: np.ndarray) -> np.ndarray:
        """Full ``(n, S)`` block as transmitted: coded rows then parities."""
        data = self._check_symbols(np.asarray(data), rows_axis=0)
        return np.concatenate(
            [self.coded_symbols(data), self.encode_symbols(data)]
        )

    def coded_symbols(self, data: np.ndarray) -> np.ndarray:
        """The first ``k`` on-the-wire rows for a ``(k, S)`` data matrix.

        Identity for systematic codes; non-systematic codes override to
        apply their transform.  No stats are charged here — systematic
        passthrough does no field work.
        """
        if not self.systematic:
            raise NotImplementedError(
                f"{type(self).__name__} is non-systematic and must override "
                "coded_symbols()"
            )
        return self._check_symbols(np.asarray(data), rows_axis=0)

    def encode(self, data_packets: list[bytes]) -> list[bytes]:
        """Produce the ``h`` parity packets for ``k`` equal-length packets.

        The returned parities, appended to the on-the-wire data packets
        (see :meth:`encode_block`), form the FEC block
        ``d_1 .. d_k, p_1 .. p_h`` of Section 2.1.
        """
        symbols = self.encode_symbols(self._stack(data_packets))
        return [self._to_bytes(row) for row in symbols]

    def encode_block(self, data_packets: list[bytes]) -> list[bytes]:
        """All ``n`` on-the-wire packets for ``k`` data packets.

        For systematic codes this is the data verbatim followed by the
        parities; non-systematic codes transform the data prefix too.
        """
        stacked = self._stack(data_packets)
        coded = self.coded_symbols(stacked)
        parities = self.encode_symbols(stacked)
        return [self._to_bytes(row) for row in coded] + [
            self._to_bytes(row) for row in parities
        ]

    def encode_blocks(self, data: np.ndarray) -> np.ndarray:
        """Encode a ``(B, k, S)`` batch of blocks; returns ``(B, h, S)``.

        The base implementation loops :meth:`encode_symbols` per block
        (stats are charged per block by that call); codecs with a batched
        kernel override this.
        """
        if data.ndim != 3:
            raise ValueError(
                f"expected a (B, k, S) symbol batch, got shape {data.shape}"
            )
        blocks, _, symbols = data.shape
        if blocks == 0:
            return np.empty((0, self.h, symbols), dtype=self.field.dtype)
        return np.stack([self.encode_symbols(block) for block in data])

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
    # decodability
    # ------------------------------------------------------------------
    def _pattern_decodable(self, pattern: tuple[int, ...]) -> bool:
        """Can this sorted ``>= k``-element index pattern be decoded?

        Only consulted for non-MDS codes (MDS codes decode any ``k``-subset
        by definition); such codes must override this with their structural
        check.  The result is memoized per instance by
        :meth:`decodable_from`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} is non-MDS and must override "
            "_pattern_decodable()"
        )

    def decodable_from(self, indices: Iterable[int]) -> bool:
        """True iff a receiver holding exactly ``indices`` can decode.

        ``indices`` are block indices (``0..n-1``); duplicates are ignored.
        This is the *claim* the conformance suite holds every codec to:
        :meth:`decode` must succeed on every pattern for which this returns
        True and raise :exc:`DecodeError` on every pattern for which it
        returns False.
        """
        present = frozenset(int(i) for i in indices)
        if present and (min(present) < 0 or max(present) >= self.n):
            raise ValueError(
                f"packet index out of range for block length n={self.n}: "
                f"{sorted(present)}"
            )
        if len(present) < self.k:
            return False
        if self.is_mds:
            return True
        pattern = tuple(sorted(present))
        verdict = self._decodable_memo.get(pattern)
        if verdict is None:
            verdict = self._pattern_decodable(pattern)
            if len(self._decodable_memo) < _DECODABLE_MEMO_LIMIT:
                self._decodable_memo[pattern] = verdict
        return verdict

    def decodable_mask(self, received: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`decodable_from` over a reception matrix.

        ``received`` is a boolean ``(R, n')`` (or ``(n',)``) matrix of
        per-receiver reception indicators over the first ``n' <= n`` packets
        of a block; returns a boolean ``(R,)`` decodability vector.  The MC
        simulators use this as the codec-aware replacement for the ideal-MDS
        ``received.sum(axis=1) >= k`` test.
        """
        received = np.atleast_2d(np.asarray(received, dtype=bool))
        if received.shape[1] > self.n:
            raise ValueError(
                f"pattern covers {received.shape[1]} packets but the codec "
                f"block is only n={self.n}"
            )
        candidates = received.sum(axis=1) >= self.k
        if self.is_mds or not candidates.any():
            return candidates
        out = np.zeros(received.shape[0], dtype=bool)
        rows = np.unique(received[candidates], axis=0)
        verdicts = np.array(
            [self.decodable_from(np.flatnonzero(row)) for row in rows]
        )
        # map each candidate row back to its unique pattern's verdict
        candidate_rows = received[candidates]
        for row, verdict in zip(rows, verdicts):
            if verdict:
                out[np.flatnonzero(candidates)[
                    (candidate_rows == row).all(axis=1)
                ]] = True
        return out

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def decode_symbols(self, rows: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Symbol-level decode; returns ``{data_index: (S,) symbols}``.

        ``rows`` maps block indices to equal-length symbol vectors.  Must
        raise :exc:`DecodeError` when the pattern is unrecoverable.
        """

    def decode(self, received: dict[int, bytes]) -> list[bytes]:
        """Reconstruct the ``k`` data packets from the received packets.

        Parameters
        ----------
        received:
            Mapping from block index (``0..n-1``; indices ``>= k`` are
            parities) to packet payload.  At least ``k`` entries are needed;
            non-MDS codes may need a structurally recoverable pattern.

        Returns
        -------
        The ``k`` data packets, in order.  Only lost data packets are
        rebuilt; a systematic code hands a received data packet back as
        ``bytes(payload)`` without converting it to symbols and back.

        Raises
        ------
        DecodeError
            If fewer than ``k`` distinct packets were supplied, or the
            erasure pattern is unrecoverable for this code.
        """
        if not received:
            raise DecodeError("no packets received")
        indices = sorted(received)
        if indices[0] < 0 or indices[-1] >= self.n:
            raise ValueError(
                f"packet index out of range for block length n={self.n}: {indices}"
            )
        if len(indices) < self.k:
            raise DecodeError(
                f"need at least k={self.k} packets to decode, got {len(indices)}"
            )
        if self.systematic and indices[-1] == self.k - 1:
            # exactly the k data packets: nothing to rebuild
            data = [received[i] for i in indices]
            if set(map(type, data)) == {bytes}:
                lengths = set(map(len, data))
                for length in lengths:
                    self._byte_symbols(length)
                if len(lengths) != 1:
                    raise ValueError("received packets have inconsistent lengths")
                return data
        # byte payloads are checked but stay bytes; arrays become symbols,
        # whose bytes are what a decode returns for them
        packets: dict[int, bytes | np.ndarray] = {}
        lengths = set()
        for index, packet in received.items():
            if isinstance(packet, np.ndarray):
                packet = self._to_symbols(packet)
                lengths.add(packet.shape[0])
            else:
                packet = bytes(packet)
                lengths.add(self._byte_symbols(len(packet)))
            packets[index] = packet
        if len(lengths) != 1:
            raise ValueError("received packets have inconsistent lengths")

        lost = (
            [i for i in range(self.k) if i not in packets]
            if self.systematic
            else range(self.k)
        )
        if lost:
            decoded = self.decode_symbols(
                {i: self._to_symbols(p) for i, p in packets.items()}
            )
            for i in lost:
                packets[i] = decoded[i]
        return [
            packet if isinstance(packet, bytes) else self._to_bytes(packet)
            for packet in (packets[i] for i in range(self.k))
        ]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{type(self).__name__}(k={self.k}, h={self.h}, "
            f"GF(2^{self.field.m}))"
        )
