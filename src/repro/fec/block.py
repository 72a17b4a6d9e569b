"""Transmission-group framing on top of a raw erasure codec.

The paper's unit of loss recovery is the *transmission group* (TG): ``k``
data packets that share one FEC block of ``n = k + h`` packets.  This module
provides the sender- and receiver-side bookkeeping around the codec:

* :class:`BlockEncoder` slices an application byte-stream into fixed-size
  packets, pads the tail, groups packets into TGs and produces parities
  (eagerly or lazily — lazy models protocol NP, which only encodes the
  parities its rounds send, ``k (E[M] - 1)`` per TG as Section 5 charges;
  eager models pre-encoding, Section 5's throughput booster).
* :class:`BlockDecoder` is the per-TG receive buffer: it absorbs data and
  parity packets in any order, reports how many packets are still missing
  (the quantity carried in the paper's ``NAK(i, l)``), and reconstructs the
  group once any ``k`` packets have arrived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fec.code import DecodeError
from repro.fec.rse import RSECodec

__all__ = [
    "TransmissionGroup",
    "BlockEncoder",
    "BlockDecoder",
    "slice_stream",
    "join_stream",
]

#: Header layout used by the example applications: (tg_index, block_index).
#: Kept as a plain tuple to stay transport-agnostic.
PacketAddress = tuple[int, int]


def slice_stream(data: bytes, packet_size: int, k: int) -> list[list[bytes]]:
    """Slice ``data`` into transmission groups of ``k`` packets each.

    The final packet is zero-padded to ``packet_size`` and the final group is
    padded with all-zero packets so every group has exactly ``k`` members
    (real protocols carry the true length in a trailer; the examples store it
    out of band).
    """
    if packet_size < 1:
        raise ValueError(f"packet_size must be >= 1, got {packet_size}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    packets = [
        bytes(data[i: i + packet_size]).ljust(packet_size, b"\x00")
        for i in range(0, max(len(data), 1), packet_size)
    ]
    groups: list[list[bytes]] = []
    for start in range(0, len(packets), k):
        group = packets[start: start + k]
        while len(group) < k:
            group.append(b"\x00" * packet_size)
        groups.append(group)
    return groups


def join_stream(groups: list[list[bytes]], total_length: int | None) -> bytes:
    """Inverse of :func:`slice_stream` given the original byte length
    (``None`` keeps the padding)."""
    flat = b"".join(packet for group in groups for packet in group)
    return flat[:total_length]


@dataclass
class TransmissionGroup:
    """One sender-side TG: data packets plus (possibly partial) parities."""

    index: int
    data: list[bytes]
    parities: list[bytes] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.data)

    def packet(self, block_index: int) -> bytes:
        """Packet by FEC-block index (``0..k-1`` data, ``k..`` parity)."""
        if block_index < self.k:
            return self.data[block_index]
        parity_index = block_index - self.k
        if parity_index >= len(self.parities):
            raise IndexError(
                f"parity {parity_index} of TG {self.index} not yet encoded"
            )
        return self.parities[parity_index]


class BlockEncoder:
    """Sender-side framing: byte-stream -> TGs -> parities on demand.

    Parameters
    ----------
    k, h:
        Transmission-group size and maximum parities per group.
    packet_size:
        Payload bytes per packet.
    codec:
        Optional shared :class:`RSECodec`; one is built if omitted.
    pre_encode:
        If true, all ``h`` parities of every group are produced at
        construction time (the paper's "pre-encoding" variant that removes
        encoding from the sender's critical path).
    """

    def __init__(
        self,
        data: bytes,
        k: int,
        h: int,
        packet_size: int,
        codec: RSECodec | None = None,
        pre_encode: bool = False,
    ):
        self.codec = codec if codec is not None else RSECodec(k, h)
        if self.codec.k != k or self.codec.h < h:
            raise ValueError(
                f"codec {self.codec!r} incompatible with k={k}, h={h}"
            )
        self.k = k
        self.h = h
        self.packet_size = packet_size
        self.total_length = len(data)
        self.groups = [
            TransmissionGroup(index=i, data=group)
            for i, group in enumerate(slice_stream(data, packet_size, k))
        ]
        if pre_encode and h > 0:
            # all groups share the packet size, so the whole stream is one
            # batched (B, k, S) encode instead of a per-group Python loop
            all_parities = self.codec.encode_many(
                [group.data for group in self.groups]
            )
            for group, parities in zip(self.groups, all_parities):
                group.parities = parities

    def __len__(self) -> int:
        return len(self.groups)

    def data_packet(self, tg_index: int, block_index: int) -> bytes:
        """Data packet ``block_index`` (``0..k-1``) of group ``tg_index``."""
        if not 0 <= block_index < self.k:
            raise IndexError(f"data index {block_index} outside 0..{self.k - 1}")
        return self.groups[tg_index].packet(block_index)

    def parity_packet(self, tg_index: int, parity_index: int) -> bytes:
        """Parity ``parity_index`` of group ``tg_index``, encoding lazily.

        A parity not yet encoded encodes the rest of the group in one
        product; a caller that knows how many parities it will send asks
        for them first with :meth:`encode_parities`.
        """
        if not 0 <= parity_index < self.h:
            raise IndexError(
                f"parity index {parity_index} outside 0..{self.h - 1}"
            )
        group = self.groups[tg_index]
        if parity_index >= len(group.parities):
            self._extend(group, self.h)
        return group.parities[parity_index]

    def encode_parities(self, tg_index: int, count: int) -> None:
        """Make parities ``0..count-1`` of group ``tg_index`` available.

        The ones not yet encoded cost one product of exactly their rows,
        so a caller that knows a round's parity count asks for it here.
        """
        if not 0 <= count <= self.h:
            raise IndexError(f"parity count {count} outside 0..{self.h}")
        group = self.groups[tg_index]
        if count > len(group.parities):
            self._extend(group, count)

    def _extend(self, group: TransmissionGroup, count: int) -> None:
        """Encode parities ``len(group.parities)..count-1``.  Each parity
        is its own generator row, so encoding a prefix in pieces costs
        the rows of the whole prefix, no more."""
        group.parities += self.codec.encode(
            group.data, len(group.parities), count
        )


class BlockDecoder:
    """Receiver-side buffer for a single transmission group.

    Mirrors the FEC-receiver behaviour of Section 3.1 and protocol NP's
    receiver (Section 5.1): store whatever arrives, expose the number of
    packets still needed (``l`` in ``NAK(i, l)``) and decode once any ``k``
    packets are held.
    """

    def __init__(self, k: int, codec: RSECodec):
        if codec.k != k:
            raise ValueError(f"codec k={codec.k} does not match group k={k}")
        self.k = k
        self.codec = codec
        #: values are whatever the caller handed in — ``bytes`` payloads or
        #: zero-copy symbol views (:func:`repro.protocols.packets.payload_symbols`);
        #: the codec's ``decode`` accepts both and nothing here reads the data
        self.received: dict[int, bytes | np.ndarray] = {}
        self._decoded: list[bytes] | None = None
        self.duplicates = 0

    def add(self, block_index: int, payload: bytes | np.ndarray) -> bool:
        """Absorb one packet; returns True if the group is now decodable.

        Raises :exc:`ValueError` for an index outside the block, which is
        not stored.
        """
        if not 0 <= block_index < self.codec.n:
            raise ValueError(
                f"packet index out of range for block length "
                f"n={self.codec.n}: [{block_index}]"
            )
        if self._decoded is not None:
            self.duplicates += 1
            return True
        if block_index in self.received:
            self.duplicates += 1
        else:
            self.received[block_index] = payload
        return self.decodable

    @property
    def decodable(self) -> bool:
        return self._decoded is not None or len(self.received) >= self.k

    @property
    def missing(self) -> int:
        """Packets still required to reconstruct the group (``l``)."""
        if self._decoded is not None:
            return 0
        return max(self.k - len(self.received), 0)

    def reconstruct(self) -> list[bytes]:
        """Decode and return the ``k`` data packets (cached after first call)."""
        if self._decoded is None:
            if len(self.received) < self.k:
                raise DecodeError(
                    f"group incomplete: {len(self.received)}/{self.k} packets"
                )
            self._decoded = self.codec.decode(self.received)
        return self._decoded

    def decoding_work(self) -> int:
        """Number of data packets that decoding had to reconstruct."""
        return sum(1 for i in range(self.k) if i not in self.received)
