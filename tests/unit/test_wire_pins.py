"""The bytes of one frame of every wire type, pinned.

The hex strings are what ``encode_frame`` produced before the codec's
encode path was reworked to join each frame once; a change to the
encoder that moves one byte of any of them changes the wire.
"""

import pytest

from repro.net.wire import (
    TraceContextPacket,
    decode_frame,
    encode_frame,
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

SESSION_ID = 0x1122334455667788

#: (packet, its frame under SESSION_ID), in wire type order; payload
#: packets carry the checksum decoding re-stamps (it is not on the wire)
PINS = [
    (
        DataPacket(3, 5, b"payload-data", 2, checksum_of(b"payload-data")),
        "5042010111223344556677880000000300000005000000027061796c6f61642d"
        "646174618bafebd9",
    ),
    (
        ParityPacket(4, 9, b"parity-bytes", checksum_of(b"parity-bytes")),
        "50420102112233445566778800000004000000097061726974792d6279746573"
        "6988c43c",
    ),
    (
        Retransmission(6, 1, b"arq-copy", checksum_of(b"arq-copy")),
        "50420103112233445566778800000006000000016172712d636f70798de93e66",
    ),
    (
        Poll(7, 8, 2),
        "5042010411223344556677880000000700000008000000026a575245",
    ),
    (
        Nak(9, 3, 4),
        "504201051122334455667788000000090000000300000004a3fc9e6d",
    ),
    (
        SelectiveNak(10, (1, 5, 7), 2),
        "5042010611223344556677880000000a00000002000300000001000000050000"
        "00075e2ac302",
    ),
    (
        GroupAbort(11, 6),
        "5042010711223344556677880000000b00000006a50ad36a",
    ),
    (
        SlotNak(12, (0, 2), 3),
        "5042010811223344556677880000000c0000000300020000000000000002b66f"
        "1bcc",
    ),
    (
        SessionJoin(group=5, nonce=0x0123456789ABCDEF),
        "504201091122334455667788000000050123456789abcdef7febd0ba",
    ),
    (
        SessionAnnounce(
            k=8, h=16, packet_size=1024, n_groups=320,
            total_length=2621440, codec="rse",
        ),
        "5042010a11223344556677880008001000000400000001400000000000280000"
        "727365b06e06c8",
    ),
    (
        SessionComplete(delivered=320, failed=1),
        "5042010b112233445566778800000140000000014a099465",
    ),
    (
        SessionFin("ejected"),
        "5042010c11223344556677880137e3171a",
    ),
    (
        TraceContextPacket("0123456789abcdef" * 2),
        "5042010d11223344556677880123456789abcdef0123456789abcdef049317fc",
    ),
]


def test_one_pin_per_wire_type():
    assert [type(packet) for packet, _ in PINS] == list(wire_types())


@pytest.mark.parametrize(
    "packet,frame", PINS, ids=[type(packet).__name__ for packet, _ in PINS]
)
class TestPinnedFrames:
    def test_encode(self, packet, frame):
        assert encode_frame(packet, SESSION_ID).hex() == frame

    def test_decode(self, packet, frame):
        decoded = decode_frame(bytes.fromhex(frame))
        assert decoded.session_id == SESSION_ID
        assert decoded.packet == packet
