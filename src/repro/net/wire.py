"""Byte-level wire codec for every `repro.protocols.packets` type.

Frame layout (network byte order)::

    offset  size  field
    0       2     magic  b"PB"          (parity-based)
    2       1     version (currently 1)
    3       1     packet-type discriminator
    4       8     session id (uint64)
    12      ...   type-specific body
    -4      4     CRC-32 over everything before it (header + body)

The decoder is *strict by construction*: any frame that is truncated,
carries the wrong magic, an unsupported version, an unknown type, a CRC
mismatch, or a body that does not parse to exactly the declared shape is
rejected with a typed :class:`FrameError` naming the reason — never a bare
``struct.error``/``IndexError``/``UnicodeDecodeError``.  The fuzz suite in
``tests/property/test_prop_wire.py`` holds the codec to that contract over
arbitrary byte strings.

Checksum semantics at the frame boundary: the whole-frame CRC subsumes the
per-packet checksums, so bodies do not carry them.  ``decode_frame``
re-stamps — payload packets get ``checksum_of(payload)``, control packets
auto-stamp at construction — so a decoded packet always verifies intact
(frames that were damaged on the wire never decode at all).

Each direction copies a payload once: ``encode_frame`` chains the CRC
over header and payload into one ``join`` (a fan-out sends those bytes to
every member), and ``decode_frame`` runs the CRC over a ``memoryview``,
reads the fields in place with ``unpack_from`` and cuts only the payload.

Forward compatibility lever: the version byte is load-bearing and frozen
at 1; *new control surface* is added as new type discriminators instead.
A v1-only decoder that predates a type treats such frames as
``unknown_type`` — counted and dropped by every endpoint, never fatal —
so old and new peers interoperate, each simply ignoring what it does not
speak.  :class:`TraceContextPacket` (type 13, telemetry trace ids) is the
first use of this lever; see docs/PROTOCOL.md.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.protocols.layered import SlotNak
from repro.protocols.packets import (
    DataPacket,
    GroupAbort,
    Nak,
    ParityPacket,
    Poll,
    Retransmission,
    SelectiveNak,
    SessionAnnounce,
    SessionComplete,
    SessionFin,
    SessionJoin,
    checksum_of,
    direct_init,
)

__all__ = [
    "FrameError",
    "Frame",
    "MAGIC",
    "VERSION",
    "MAX_SESSION_ID",
    "TraceContextPacket",
    "encode_frame",
    "decode_frame",
    "frame_kind",
    "wire_types",
]

MAGIC = b"PB"
VERSION = 1

_HEADER = struct.Struct("!2sBBQ")  # magic, version, type, session id
_CRC = struct.Struct("!I")
_MIN_FRAME = _HEADER.size + _CRC.size
#: offset of the type-specific body; it ends where the CRC begins
_BODY = _HEADER.size

MAX_SESSION_ID = 2**64 - 1
#: codec names are short; anything longer is a malformed frame
_MAX_CODEC_NAME = 64


class FrameError(ValueError):
    """A frame could not be encoded or decoded; ``reason`` says why.

    Decode reasons: ``truncated``, ``bad_magic``, ``bad_version``,
    ``crc_mismatch``, ``unknown_type``, ``malformed``.  Encode reasons:
    ``unencodable`` (unknown packet class), ``overflow`` (a field exceeds
    its wire width).
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


@direct_init
@dataclass(frozen=True)
class Frame:
    """A decoded frame: the session id and the packet it carried."""

    session_id: int
    packet: Any


@direct_init
@dataclass(frozen=True)
class TraceContextPacket:
    """Telemetry control packet: the sender session's 32-hex trace id.

    Sent alongside every session announce so both sides of a transfer
    stitch their spans under one trace (`repro.obs.tracecontext`).  Pure
    telemetry: losing it (or a v1-only peer dropping it as
    ``unknown_type``) never affects data transfer.
    """

    trace_id: str


# ----------------------------------------------------------------------
# per-type body codecs
# ----------------------------------------------------------------------
_DATA = struct.Struct("!III")  # tg, index, generation
_PARITY = struct.Struct("!II")  # tg, index
_POLL = struct.Struct("!III")  # tg, sent, round
_NAK = struct.Struct("!III")  # tg, needed, round
_SNAK = struct.Struct("!IIH")  # tg, round, count (then count * u32)
_ABORT = struct.Struct("!II")  # tg, round
_JOIN = struct.Struct("!IQ")  # group, nonce
_ANNOUNCE = struct.Struct("!HHIIQ")  # k, h, packet_size, n_groups, length
_COMPLETE = struct.Struct("!II")  # delivered, failed
_FIN = struct.Struct("!B")  # reason code


# Encoders return a body's fixed fields and what trails them (``b""`` for
# most control packets); ``encode_frame`` types ``struct.error`` overflow.
# Decoders take the whole datagram and ``end``, the offset of its CRC: the
# body is ``data[_BODY:end]``, read in place.
def _exact(fmt: struct.Struct, data: bytes, end: int) -> tuple:
    if end - _BODY != fmt.size:
        raise FrameError(
            "malformed", f"body is {end - _BODY} bytes, expected {fmt.size}"
        )
    return fmt.unpack_from(data, _BODY)


def _prefix(fmt: struct.Struct, data: bytes, end: int) -> tuple:
    if end - _BODY < fmt.size:
        raise FrameError(
            "malformed", f"body is {end - _BODY} bytes, needs >= {fmt.size}"
        )
    return fmt.unpack_from(data, _BODY)


def _encode_data(p: DataPacket) -> tuple[bytes, bytes]:
    return _DATA.pack(p.tg, p.index, p.generation), p.payload


def _decode_data(data: bytes, end: int) -> DataPacket:
    tg, index, generation = _prefix(_DATA, data, end)
    payload = data[_BODY + _DATA.size: end]
    return DataPacket(tg, index, payload, generation, checksum_of(payload))


def _encode_parity(p: ParityPacket) -> tuple[bytes, bytes]:
    return _PARITY.pack(p.tg, p.index), p.payload


def _decode_parity(data: bytes, end: int) -> ParityPacket:
    tg, index = _prefix(_PARITY, data, end)
    payload = data[_BODY + _PARITY.size: end]
    return ParityPacket(tg, index, payload, checksum_of(payload))


def _decode_retransmission(data: bytes, end: int) -> Retransmission:
    tg, index = _prefix(_PARITY, data, end)
    payload = data[_BODY + _PARITY.size: end]
    return Retransmission(tg, index, payload, checksum_of(payload))


def _encode_poll(p: Poll) -> tuple[bytes, bytes]:
    return _POLL.pack(p.tg, p.sent, p.round), b""


def _decode_poll(data: bytes, end: int) -> Poll:
    return Poll(*_exact(_POLL, data, end))


def _encode_nak(p: Nak) -> tuple[bytes, bytes]:
    return _NAK.pack(p.tg, p.needed, p.round), b""


def _decode_nak(data: bytes, end: int) -> Nak:
    return Nak(*_exact(_NAK, data, end))


def _encode_selective_nak(p: SelectiveNak) -> tuple[bytes, bytes]:
    count = len(p.missing)
    head = _SNAK.pack(p.tg, p.round, count)
    return head, struct.pack(f"!{count}I", *p.missing)


def _index_list(data: bytes, end: int, count: int, what: str) -> tuple:
    """The ``count`` u32 values trailing a ``_SNAK`` head, read in place."""
    start = _BODY + _SNAK.size
    if end - start != 4 * count:
        raise FrameError(
            "malformed",
            f"{what} declares {count} entries, carries {end - start} "
            f"trailing bytes",
        )
    return struct.unpack_from(f"!{count}I", data, start)


def _decode_selective_nak(data: bytes, end: int) -> SelectiveNak:
    tg, round_index, count = _prefix(_SNAK, data, end)
    missing = _index_list(data, end, count, "selective NAK")
    return SelectiveNak(tg, missing, round_index)


def _encode_slot_nak(p: SlotNak) -> tuple[bytes, bytes]:
    count = len(p.slots)
    head = _SNAK.pack(p.block, p.round, count)
    return head, struct.pack(f"!{count}I", *p.slots)


def _decode_slot_nak(data: bytes, end: int) -> SlotNak:
    block, round_index, count = _prefix(_SNAK, data, end)
    slots = _index_list(data, end, count, "slot NAK")
    return SlotNak(block, slots, round_index)


def _encode_abort(p: GroupAbort) -> tuple[bytes, bytes]:
    return _ABORT.pack(p.tg, p.round), b""


def _decode_abort(data: bytes, end: int) -> GroupAbort:
    return GroupAbort(*_exact(_ABORT, data, end))


def _encode_join(p: SessionJoin) -> tuple[bytes, bytes]:
    return _JOIN.pack(p.group, p.nonce), b""


def _decode_join(data: bytes, end: int) -> SessionJoin:
    group, nonce = _exact(_JOIN, data, end)
    return SessionJoin(group=group, nonce=nonce)


def _encode_announce(p: SessionAnnounce) -> tuple[bytes, bytes]:
    try:
        name = p.codec.encode("ascii")
    except UnicodeEncodeError as exc:
        raise FrameError("overflow", f"codec name {p.codec!r}") from exc
    if len(name) > _MAX_CODEC_NAME:
        raise FrameError("overflow", f"codec name {p.codec!r} too long")
    return (
        _ANNOUNCE.pack(p.k, p.h, p.packet_size, p.n_groups, p.total_length),
        name,
    )


def _decode_announce(data: bytes, end: int) -> SessionAnnounce:
    k, h, packet_size, n_groups, total_length = _prefix(_ANNOUNCE, data, end)
    name = data[_BODY + _ANNOUNCE.size: end]
    if len(name) > _MAX_CODEC_NAME:
        raise FrameError("malformed", "codec name too long")
    try:
        codec = name.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FrameError("malformed", "codec name not ascii") from exc
    return SessionAnnounce(
        k=k,
        h=h,
        packet_size=packet_size,
        n_groups=n_groups,
        total_length=total_length,
        codec=codec,
    )


def _encode_complete(p: SessionComplete) -> tuple[bytes, bytes]:
    return _COMPLETE.pack(p.delivered, p.failed), b""


def _decode_complete(data: bytes, end: int) -> SessionComplete:
    delivered, failed = _exact(_COMPLETE, data, end)
    return SessionComplete(delivered=delivered, failed=failed)


#: a trace id is exactly 16 raw bytes on the wire (32 hex chars in code)
_TRACE_ID_BYTES = 16


def _encode_trace(p: TraceContextPacket) -> tuple[bytes, bytes]:
    try:
        raw = bytes.fromhex(p.trace_id)
    except (ValueError, TypeError) as exc:
        raise FrameError("overflow", f"trace id {p.trace_id!r}") from exc
    if len(raw) != _TRACE_ID_BYTES:
        raise FrameError("overflow", f"trace id {p.trace_id!r} wrong width")
    return raw, b""


def _decode_trace(data: bytes, end: int) -> TraceContextPacket:
    if end - _BODY != _TRACE_ID_BYTES:
        raise FrameError(
            "malformed",
            f"trace body is {end - _BODY} bytes, expected {_TRACE_ID_BYTES}",
        )
    return TraceContextPacket(data[_BODY:end].hex())


def _encode_fin(p: SessionFin) -> tuple[bytes, bytes]:
    return _FIN.pack(SessionFin.REASONS.index(p.reason)), b""


def _decode_fin(data: bytes, end: int) -> SessionFin:
    (code,) = _exact(_FIN, data, end)
    if code >= len(SessionFin.REASONS):
        raise FrameError("malformed", f"unknown fin reason code {code}")
    return SessionFin(SessionFin.REASONS[code])


#: type discriminator -> (packet class, metric kind, encoder, decoder)
_TYPES: dict[int, tuple[type, str, Callable, Callable]] = {
    1: (DataPacket, "data", _encode_data, _decode_data),
    2: (ParityPacket, "parity", _encode_parity, _decode_parity),
    # a retransmission's body is laid out as a parity's
    3: (Retransmission, "retransmission", _encode_parity,
        _decode_retransmission),
    4: (Poll, "poll", _encode_poll, _decode_poll),
    5: (Nak, "nak", _encode_nak, _decode_nak),
    6: (SelectiveNak, "nak", _encode_selective_nak, _decode_selective_nak),
    7: (GroupAbort, "abort", _encode_abort, _decode_abort),
    8: (SlotNak, "nak", _encode_slot_nak, _decode_slot_nak),
    9: (SessionJoin, "join", _encode_join, _decode_join),
    10: (SessionAnnounce, "announce", _encode_announce, _decode_announce),
    11: (SessionComplete, "complete", _encode_complete, _decode_complete),
    12: (SessionFin, "fin", _encode_fin, _decode_fin),
    13: (TraceContextPacket, "trace", _encode_trace, _decode_trace),
}
#: packet class -> (type discriminator, encoder)
_ENCODERS = {cls: (tid, enc) for tid, (cls, _, enc, _) in _TYPES.items()}
_KIND_OF_CLASS = {cls: kind for cls, kind, _, _ in _TYPES.values()}


def wire_types() -> tuple[type, ...]:
    """Every packet class the codec can carry (for conformance tests)."""
    return tuple(cls for cls, *_ in _TYPES.values())


def frame_kind(packet: Any) -> str:
    """Short metric label for a packet (``data``, ``nak``, ``fin``, ...)."""
    return _KIND_OF_CLASS.get(type(packet), "unknown")


def encode_frame(packet: Any, session_id: int = 0) -> bytes:
    """Serialize ``packet`` into a self-delimiting, CRC-protected frame."""
    entry = _ENCODERS.get(type(packet))
    if entry is None:
        raise FrameError(
            "unencodable", f"no wire mapping for {type(packet).__name__}"
        )
    type_id, encoder = entry
    try:
        fixed, trailer = encoder(packet)
        head = _HEADER.pack(MAGIC, VERSION, type_id, session_id) + fixed
    except struct.error as exc:  # a field, or the session id, too wide
        raise FrameError("overflow", str(exc)) from exc
    crc = zlib.crc32(trailer, zlib.crc32(head))
    return b"".join((head, trailer, _CRC.pack(crc)))


def decode_frame(data: bytes) -> Frame:
    """Parse one frame; raises :class:`FrameError` on anything suspect."""
    end = len(data) - _CRC.size
    if end < _BODY:
        raise FrameError("truncated", f"{len(data)} bytes < {_MIN_FRAME}")
    magic, version, type_id, session_id = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FrameError("bad_magic", repr(magic))
    if version != VERSION:
        raise FrameError("bad_version", str(version))
    (stored_crc,) = _CRC.unpack_from(data, end)
    if zlib.crc32(memoryview(data)[:end]) != stored_crc:
        raise FrameError("crc_mismatch", f"stored {stored_crc:#010x}")
    entry = _TYPES.get(type_id)
    if entry is None:
        raise FrameError("unknown_type", str(type_id))
    try:
        packet = entry[3](data, end)
    except FrameError:
        raise
    except Exception as exc:  # defensive: decoder bugs stay typed
        raise FrameError("malformed", f"{type(exc).__name__}: {exc}") from exc
    return Frame(session_id, packet)
