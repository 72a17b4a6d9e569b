"""Erasure coding layer (the paper's Section 2).

* :class:`repro.fec.RSECodec` — the paper's systematic any-k-of-n coder,
  the only erasure code; :func:`repro.fec.create_codec` turns the code name
  a session announce carries (``"rse"``) into one;
* :class:`repro.fec.BlockEncoder` / :class:`repro.fec.BlockDecoder` —
  transmission-group framing and receive buffers;
* :class:`repro.fec.BlockInterleaver` — burst-loss interleaving (Section 4.2).
"""

from repro.fec.block import (
    BlockDecoder,
    BlockEncoder,
    TransmissionGroup,
    join_stream,
    slice_stream,
)
from repro.fec.code import (
    CodecStats,
    CodeGeometryError,
    DecodeError,
    max_block_length,
)
from repro.fec.interleaver import BlockInterleaver, Deinterleaver, interleave_indices
from repro.fec.rse import (
    InverseCache,
    RSECodec,
    create_codec,
    default_inverse_cache,
)

__all__ = [
    "RSECodec",
    "DecodeError",
    "CodeGeometryError",
    "CodecStats",
    "InverseCache",
    "default_inverse_cache",
    "max_block_length",
    "create_codec",
    "BlockEncoder",
    "BlockDecoder",
    "TransmissionGroup",
    "slice_stream",
    "join_stream",
    "BlockInterleaver",
    "Deinterleaver",
    "interleave_indices",
]
