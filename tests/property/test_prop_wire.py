"""Property tests for the `repro.net.wire` frame codec.

Two contracts, held over randomized inputs:

* **Round-trip** — ``decode_frame(encode_frame(p, sid))`` reproduces every
  encodable packet type exactly (checksums re-stamped, session id carried).
* **Strictness** — the decoder *only ever* raises :class:`FrameError`,
  whatever bytes it is fed: arbitrary garbage, bit-flipped valid frames,
  truncations, extensions.  A ``struct.error`` or ``IndexError`` escaping
  the decoder would let one malformed datagram kill an endpoint.
"""

import struct
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.wire import (
    MAGIC,
    MAX_SESSION_ID,
    VERSION,
    Frame,
    FrameError,
    TraceContextPacket,
    decode_frame,
    encode_frame,
    frame_kind,
    wire_types,
)
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
)

u16 = st.integers(0, 2**16 - 1)
u32 = st.integers(0, 2**32 - 1)
u64 = st.integers(0, 2**64 - 1)
payloads = st.binary(max_size=512)
index_tuples = st.lists(u32, max_size=24).map(tuple)
#: the wire carries a codec name without interpreting it: any short ASCII
ascii_names = st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=16)


def _payload_packet(cls):
    """Payload packets decode with a stamped checksum: build them stamped."""
    return st.builds(
        lambda tg, index, payload: cls(
            tg, index, payload, checksum=checksum_of(payload)
        ),
        u32,
        u32,
        payloads,
    )


packets = st.one_of(
    st.builds(
        lambda tg, index, payload, gen: DataPacket(
            tg, index, payload, gen, checksum=checksum_of(payload)
        ),
        u32,
        u32,
        payloads,
        u32,
    ),
    _payload_packet(ParityPacket),
    _payload_packet(Retransmission),
    st.builds(Poll, u32, u32, u32),
    st.builds(Nak, u32, u32, u32),
    st.builds(SelectiveNak, u32, index_tuples, u32),
    st.builds(GroupAbort, u32, u32),
    st.builds(SlotNak, u32, index_tuples, u32),
    st.builds(SessionJoin, u32, u64),
    st.builds(
        SessionAnnounce,
        k=u16,
        h=u16,
        packet_size=u32,
        n_groups=u32,
        total_length=u64,
        codec=ascii_names,
    ),
    st.builds(SessionComplete, u32, u32),
    st.builds(SessionFin, st.sampled_from(SessionFin.REASONS)),
    st.binary(min_size=16, max_size=16).map(
        lambda raw: TraceContextPacket(raw.hex())
    ),
)


class TestRoundTrip:
    @given(packet=packets, session_id=st.integers(0, MAX_SESSION_ID))
    @settings(max_examples=300)
    def test_every_type_round_trips(self, packet, session_id):
        frame = decode_frame(encode_frame(packet, session_id))
        assert frame == Frame(session_id, packet)

    @given(packet=packets)
    def test_decoded_packets_verify_intact(self, packet):
        from repro.protocols.packets import control_intact, payload_intact

        decoded = decode_frame(encode_frame(packet, 1)).packet
        if isinstance(decoded, (DataPacket, ParityPacket, Retransmission)):
            assert payload_intact(decoded)
        else:
            assert control_intact(decoded)

    def test_kind_label_for_every_wire_type(self):
        samples = {
            DataPacket: DataPacket(0, 0, b"x"),
            ParityPacket: ParityPacket(0, 8, b"x"),
            Retransmission: Retransmission(0, 1, b"x"),
            Poll: Poll(0, 8, 1),
            Nak: Nak(0, 1, 1),
            SelectiveNak: SelectiveNak(0, (1,), 1),
            GroupAbort: GroupAbort(0, 1),
            SlotNak: SlotNak(0, (1,), 1),
            SessionJoin: SessionJoin(),
            SessionAnnounce: SessionAnnounce(8, 16, 1024, 1, 8192),
            SessionComplete: SessionComplete(1),
            SessionFin: SessionFin(),
            TraceContextPacket: TraceContextPacket("ab" * 16),
        }
        assert set(samples) == set(wire_types())
        for cls, sample in samples.items():
            assert frame_kind(sample) != "unknown", cls
        assert frame_kind(object()) == "unknown"


class TestEncodeErrors:
    def test_unencodable_type(self):
        with pytest.raises(FrameError) as excinfo:
            encode_frame(object())
        assert excinfo.value.reason == "unencodable"

    @pytest.mark.parametrize("session_id", [-1, MAX_SESSION_ID + 1])
    def test_session_id_bounds(self, session_id):
        with pytest.raises(FrameError) as excinfo:
            encode_frame(Poll(0, 1, 1), session_id)
        assert excinfo.value.reason == "overflow"

    def test_field_overflow(self):
        with pytest.raises(FrameError) as excinfo:
            encode_frame(Nak(2**33, 1, 1))
        assert excinfo.value.reason == "overflow"

    def test_non_ascii_codec_name(self):
        with pytest.raises(FrameError) as excinfo:
            encode_frame(SessionAnnounce(8, 16, 1024, 1, 8192, codec="rsé"))
        assert excinfo.value.reason == "overflow"


class TestFuzzOnlyFrameError:
    """The decoder's only failure mode is FrameError — for any input."""

    @given(data=st.binary(max_size=256))
    @example(data=b"")
    @example(data=b"PB")
    @example(data=MAGIC + bytes([VERSION]) + b"\x00" * 20)
    @settings(max_examples=500)
    def test_arbitrary_bytes(self, data):
        try:
            decode_frame(data)
        except FrameError:
            pass  # the one permitted failure mode

    @given(
        packet=packets,
        position=st.integers(0, 10**6),
        flip=st.integers(1, 255),
    )
    @settings(max_examples=300)
    def test_any_single_byte_flip_is_rejected(self, packet, position, flip):
        frame = bytearray(encode_frame(packet, 7))
        frame[position % len(frame)] ^= flip
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    @given(packet=packets, keep=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_truncations_are_rejected(self, packet, keep):
        frame = encode_frame(packet, 7)
        cut = frame[: int(keep * (len(frame) - 1))]
        with pytest.raises(FrameError):
            decode_frame(cut)

    @given(packet=packets, junk=st.binary(min_size=1, max_size=64))
    @settings(max_examples=200)
    def test_trailing_junk_is_rejected(self, packet, junk):
        with pytest.raises(FrameError):
            decode_frame(encode_frame(packet, 7) + junk)


def _reframe(frame: bytes, *, version=None, type_id=None, body=None) -> bytes:
    """Rebuild a frame with surgical header/body edits and a *valid* CRC,
    so the targeted check (not the CRC) is what rejects it."""
    head = bytearray(frame[:12])
    if version is not None:
        head[2] = version
    if type_id is not None:
        head[3] = type_id
    new_body = frame[12:-4] if body is None else body
    inner = bytes(head) + new_body
    return inner + struct.pack("!I", zlib.crc32(inner))


class TestStrictDecodeOrder:
    """Each rejection reason fires on the exact malformation it names."""

    FRAME = encode_frame(Poll(3, 8, 2), 9)

    def _reason(self, data: bytes) -> str:
        with pytest.raises(FrameError) as excinfo:
            decode_frame(data)
        return excinfo.value.reason

    def test_truncated(self):
        assert self._reason(self.FRAME[:10]) == "truncated"

    def test_bad_magic(self):
        assert self._reason(b"XX" + self.FRAME[2:]) == "bad_magic"

    def test_bad_version(self):
        assert self._reason(_reframe(self.FRAME, version=VERSION + 1)) == (
            "bad_version"
        )

    def test_crc_mismatch(self):
        damaged = bytearray(self.FRAME)
        damaged[-1] ^= 0xFF
        assert self._reason(bytes(damaged)) == "crc_mismatch"

    def test_unknown_type(self):
        assert self._reason(_reframe(self.FRAME, type_id=200)) == (
            "unknown_type"
        )

    def test_malformed_body(self):
        assert self._reason(_reframe(self.FRAME, body=b"\x01\x02")) == (
            "malformed"
        )

    def test_malformed_list_body(self):
        # a selective NAK that declares more indices than it carries
        frame = encode_frame(SelectiveNak(1, (2, 3), 1), 9)
        assert self._reason(frame[:-8] + frame[-4:]) in (
            "malformed",
            "crc_mismatch",
        )
        declared_short = _reframe(frame, body=frame[12:-8])
        assert self._reason(declared_short) == "malformed"

    def test_malformed_fin_reason_code(self):
        frame = encode_frame(SessionFin("complete"), 1)
        assert self._reason(_reframe(frame, body=b"\x09")) == "malformed"
