"""What every user of the erasure code shares with it.

The paper's analysis assumes an ideal ``(k, n)`` MDS code, realised by
RSE (:class:`repro.fec.rse.RSECodec`, the tree's only code).  This module
holds the pieces around it:

* :class:`CodecStats` — cumulative operation counters.
* :exc:`DecodeError` — a block cannot be decoded from the packets at hand
  (fewer than ``k`` of them).
* :exc:`CodeGeometryError` — an impossible ``(k, h)`` geometry, rejected
  before construction does any work.
* :func:`max_block_length` — the longest block a field can address.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.galois.field import GaloisField

__all__ = [
    "CodecStats",
    "DecodeError",
    "CodeGeometryError",
    "max_block_length",
]


class DecodeError(ValueError):
    """Raised when a block cannot be decoded: fewer than ``k`` packets."""


class CodeGeometryError(ValueError):
    """Raised for an impossible ``(k, h)`` geometry.

    The codec raises this (and only this) for geometry problems —
    non-positive ``k``, negative ``h`` or a block length the field cannot
    address.  It subclasses :exc:`ValueError` so pre-existing
    ``except ValueError`` callers keep working.
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
        Number of *data* packets pushed through an encode.
    parities_produced:
        Number of parity packets produced.
    packets_decoded:
        Number of *lost data* packets reconstructed by a decode (receiving
        all data costs nothing: the code is systematic).
    symbols_multiplied:
        Constant-times-packet GF scale-accumulate operations actually
        performed, i.e. one per *nonzero* coefficient met while encoding or
        reconstructing (zero coefficients do no work and are not charged).
    decode_cache_hits:
        Decodes that reused the cached decode plan of their erasure pattern.
    decode_cache_misses:
        Decodes that had to derive the plan (Gaussian elimination).
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
