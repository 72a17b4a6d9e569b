"""Integrity is verified once per packet object, and the remembered
verdict never reaches another object.

``payload_intact`` and ``control_intact`` keep their verdict on the frozen
packet, so the R receivers a simulated multicast reaches share one CRC.
The hazards pinned here: a ``dataclasses.replace``d copy of a packet that
already verified (how tampering and ``_corrupt_copy`` build damage) must
still be checked, and dropped, by every consumer; a mutable payload must
be re-checked after it changes.
"""

import dataclasses
import zlib

import numpy as np
import pytest

from repro.net.session import SenderSession
from repro.net.supervision import NetConfig
from repro.net.wire import Frame, decode_frame, encode_frame
from repro.protocols import packets
from repro.protocols.layered import (
    BlockData,
    LayeredReceiver,
    LayeredSender,
    SlotNak,
)
from repro.protocols.n2 import N2Receiver, N2Sender
from repro.protocols.np_protocol import NPConfig, NPReceiver, NPSender
from repro.protocols.packets import (
    DataPacket,
    Nak,
    Poll,
    Retransmission,
    SelectiveNak,
    SessionComplete,
    checksum_of,
    control_intact,
    payload_intact,
)
from repro.resilience.faults import _corrupt_copy
from tests.unit.test_net_session import ReceiverHarness
from tests.unit.test_packets_control import attach_sink, make_network

ADDR = ("127.0.0.1", 40001)


def verified(packet):
    """``packet``, after a first consumer found it intact."""
    check = payload_intact if hasattr(packet, "payload") else control_intact
    assert check(packet)
    return packet


def signed(cls, *fields, payload: bytes = b"\x5a" * 16):
    """A payload packet stamped the way senders stamp them."""
    return cls(*fields, payload, checksum=checksum_of(payload))


class _CountingZlib:
    """Stands in for ``zlib`` inside ``repro.protocols.packets``."""

    def __init__(self):
        self.calls = 0

    def crc32(self, data) -> int:
        self.calls += 1
        return zlib.crc32(data)


@pytest.fixture
def crcs(monkeypatch):
    counter = _CountingZlib()
    monkeypatch.setattr(packets, "zlib", counter)
    return counter


class TestOncePerObject:
    def test_a_shared_payload_is_crcd_once(self, crcs):
        packet = signed(DataPacket, 0, 0)
        crcs.calls = 0
        assert all(payload_intact(packet) for _ in range(50))
        assert crcs.calls == 1

    def test_a_corrupt_verdict_is_remembered_too(self, crcs):
        packet = DataPacket(0, 0, b"abc", 0, checksum_of(b"abd"))
        crcs.calls = 0
        assert not any(payload_intact(packet) for _ in range(50))
        assert crcs.calls == 1

    def test_a_constructed_control_packet_is_intact_by_construction(
        self, crcs
    ):
        poll = Poll(3, 7, 2)
        assert crcs.calls == 1  # the stamp
        assert all(control_intact(poll) for _ in range(50))
        assert crcs.calls == 1

    def test_a_decoded_control_packet_is_intact_by_construction(self, crcs):
        frame = encode_frame(Nak(1, 2, 3), session_id=9)
        nak = decode_frame(frame).packet
        calls = crcs.calls
        assert control_intact(nak)
        assert crcs.calls == calls

    def test_every_distinct_object_is_checked(self, crcs):
        poll = Poll(3, 7, 2)
        copies = [dataclasses.replace(poll, sent=s) for s in range(5)]
        calls = crcs.calls
        assert not any(control_intact(copy) for copy in copies)
        assert crcs.calls == calls + 5

    def test_the_verdict_is_invisible_to_the_dataclass(self):
        fresh = signed(DataPacket, 0, 1)
        seen = verified(signed(DataPacket, 0, 1))
        assert seen == fresh and hash(seen) == hash(fresh)
        assert repr(seen) == repr(fresh)
        assert dataclasses.asdict(seen) == dataclasses.asdict(fresh)
        poll = verified(Poll(1, 2, 3))
        assert dataclasses.replace(poll) == poll
        assert dataclasses.asdict(poll) == dataclasses.asdict(Poll(1, 2, 3))


class TestMutablePayload:
    def test_a_bytearray_payload_is_rechecked_after_it_changes(self, crcs):
        payload = bytearray(b"parity")
        packet = DataPacket(0, 0, payload, 0, checksum_of(payload))
        crcs.calls = 0
        assert payload_intact(packet)
        payload[0] ^= 1
        assert not payload_intact(packet)
        payload[0] ^= 1
        assert payload_intact(packet)
        assert crcs.calls == 3


class TestTamperedCopyOfAVerifiedPacketIsDropped:
    """One test per consumer: the original verifies first, then a copy
    with a changed field (and the original's checksum) arrives."""

    def test_np_receiver_drops_the_poll(self):
        sim, network = make_network()
        config = NPConfig(k=2, h=2)
        NPSender(sim, network, b"x" * 64, config)
        receiver = NPReceiver(sim, network, n_groups=1, config=config,
                              rng=np.random.default_rng(1))
        poll = verified(Poll(0, 2, 1))
        receiver.on_packet(dataclasses.replace(poll, tg=9999))
        assert receiver.stats.control_corrupt_discarded == 1
        assert receiver.stats.polls_received == 0

    def test_np_sender_drops_the_nak(self):
        sim, network = make_network()
        config = NPConfig(k=2, h=4)
        sender = NPSender(sim, network, b"y" * 64, config)
        attach_sink(network)
        sender.start()
        sim.run()
        nak = verified(Nak(0, 1, 1))
        sender.on_feedback(dataclasses.replace(nak, needed=2))
        assert sender.stats.control_corrupt_discarded == 1
        assert sender.stats.naks_received == 0

    def test_sender_session_drops_the_nak_and_the_complete(self):
        config = NetConfig(k=4, h=4, packet_size=16)
        session = SenderSession(
            session_id=1, group=0, data=bytes(range(256)), config=config,
            send=lambda packet, addr: None, now=100.0,
        )
        assert session.add_member(ADDR, 100.0)
        session.start()
        while (packet := session.pop()) is not None:
            session.fanout(packet)
        nak = verified(Nak(0, 1, 1))
        session.on_frame(dataclasses.replace(nak, needed=4), ADDR, 100.1)
        complete = verified(SessionComplete(delivered=session.n_groups))
        session.on_frame(
            dataclasses.replace(complete, delivered=0), ADDR, 100.2
        )
        assert session.control_corrupt_discarded == 2
        assert session.naks_received == 0
        assert not session.members[ADDR].complete

    def test_socket_receiver_drops_the_poll(self, monkeypatch):
        # a decoded frame is re-stamped, so no wire frame can carry a
        # tampered copy: hand the receiver one as if the decoder had
        rx = ReceiverHarness()
        now = rx.stream(0, 50.0, lose={0}, poll=False)
        poll = verified(Poll(0, ReceiverHarness.K, 1))
        tampered = dataclasses.replace(poll, tg=1)
        monkeypatch.setattr(
            "repro.net.endpoints.decode_frame",
            lambda data: Frame(session_id=1, packet=tampered),
        )
        rx.protocol.datagram_received(b"", ADDR, now)
        assert rx.protocol.control_corrupt_discarded == 1
        assert rx.naks == []

    def test_n2_sender_and_receiver_drop_their_control(self):
        sim, network = make_network()
        config = NPConfig(k=2)
        sender = N2Sender(sim, network, b"z" * 64, config)
        receiver = N2Receiver(sim, network, n_groups=1, config=config,
                              rng=np.random.default_rng(2))
        nak = verified(SelectiveNak(0, (0,), 1))
        sender.on_feedback(dataclasses.replace(nak, missing=(1,)))
        assert sender.stats.control_corrupt_discarded == 1
        poll = verified(Poll(0, 2, 1))
        receiver.on_packet(dataclasses.replace(poll, sent=1))
        assert receiver.stats.control_corrupt_discarded == 1
        assert receiver.stats.polls_received == 0

    def test_layered_sender_and_receiver_drop_their_control(self):
        sim, network = make_network()
        config = NPConfig(k=2, h=1)
        sender = LayeredSender(sim, network, b"w" * 64, config)
        receiver = LayeredReceiver(sim, network, n_groups=1, config=config,
                                   rng=np.random.default_rng(3))
        nak = verified(SlotNak(0, (0,), 1))
        sender.on_feedback(dataclasses.replace(nak, slots=(1,)))
        assert sender.stats.control_corrupt_discarded == 1
        poll = verified(Poll(0, 3, 1))
        receiver.on_packet(dataclasses.replace(poll, sent=1))
        assert receiver.stats.control_corrupt_discarded == 1


class TestCorruptCopyOfAVerifiedPayloadIsDropped:
    def test_np_receiver_counts_it(self):
        sim, network = make_network(n_receivers=2)
        config = NPConfig(k=2, h=2)
        NPSender(sim, network, b"x" * 64, config)
        first, second = (
            NPReceiver(sim, network, n_groups=1, config=config,
                       rng=np.random.default_rng(seed))
            for seed in (1, 2)
        )
        packet = signed(DataPacket, 0, 0)
        first.on_packet(packet)
        assert first.stats.corrupt_discarded == 0
        mangled = _corrupt_copy(packet, np.random.default_rng(7))
        second.on_packet(mangled)
        first.on_packet(mangled)
        assert second.stats.corrupt_discarded == 1
        assert first.stats.corrupt_discarded == 1

    def test_n2_receiver_counts_a_retransmission(self):
        sim, network = make_network()
        config = NPConfig(k=2)
        N2Sender(sim, network, b"z" * 64, config)
        receiver = N2Receiver(sim, network, n_groups=1, config=config,
                              rng=np.random.default_rng(2))
        packet = verified(signed(Retransmission, 0, 1))
        receiver.on_packet(_corrupt_copy(packet, np.random.default_rng(7)))
        assert receiver.stats.corrupt_discarded == 1

    def test_layered_receiver_counts_a_block_slot(self):
        sim, network = make_network()
        config = NPConfig(k=2, h=1)
        LayeredSender(sim, network, b"w" * 64, config)
        receiver = LayeredReceiver(sim, network, n_groups=1, config=config,
                                   rng=np.random.default_rng(3))
        packet = verified(signed(BlockData, 0, 0, (0, 0)))
        receiver.on_packet(_corrupt_copy(packet, np.random.default_rng(7)))
        assert receiver.stats.corrupt_discarded == 1
