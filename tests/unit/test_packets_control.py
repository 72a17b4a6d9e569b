"""Control-packet CRC protection: corruption-to-drop semantics.

Payload packets have carried checksums since PR 2; control packets (polls,
NAKs, aborts, session control) gained them with the `repro.net` transport.
The regression pinned here: a control packet whose fields were tampered
with after construction (stale checksum — what a real wire bit-flip looks
like once decoded) is *dropped*, never acted on.
"""

import dataclasses

import numpy as np
import pytest

from repro.protocols.layered import LayeredReceiver, LayeredSender, SlotNak
from repro.protocols.n2 import N2Receiver, N2Sender
from repro.protocols.np_protocol import NPConfig, NPReceiver, NPSender
from repro.protocols.packets import (
    GroupAbort,
    Nak,
    Poll,
    SelectiveNak,
    SessionAnnounce,
    SessionComplete,
    SessionFin,
    SessionJoin,
    control_checksum_of,
    control_intact,
)
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss
from repro.sim.network import MulticastNetwork

CONTROL_SAMPLES = [
    Poll(3, 7, 2),
    Nak(1, 4, 2),
    SelectiveNak(2, (0, 3), 1),
    GroupAbort(5, 9),
    SlotNak(4, (1, 2, 6), 3),
    SessionJoin(group=2, nonce=77),
    SessionAnnounce(k=8, h=16, packet_size=512, n_groups=10, total_length=40960),
    SessionComplete(delivered=10, failed=0),
    SessionFin("ejected"),
]


def make_network(n_receivers=1, seed=0):
    sim = Simulator()
    network = MulticastNetwork(
        sim,
        BernoulliLoss(n_receivers, 0.0),
        np.random.default_rng(seed),
        latency=0.001,
    )
    return sim, network


def attach_sink(network):
    """Satisfy the network's wiring check for sender-only tests."""
    packets = []
    network.attach_receiver(packets.append)
    return packets


class TestControlChecksum:
    @pytest.mark.parametrize(
        "packet", CONTROL_SAMPLES, ids=lambda p: type(p).__name__
    )
    def test_auto_stamped_and_intact(self, packet):
        assert packet.checksum is not None
        assert packet.checksum == control_checksum_of(packet)
        assert control_intact(packet)

    @pytest.mark.parametrize(
        "packet,field,value",
        [
            (Poll(3, 7, 2), "tg", 4),
            (Nak(1, 4, 2), "needed", 5),
            (SelectiveNak(2, (0, 3), 1), "missing", (0, 1)),
            (GroupAbort(5, 9), "tg", 0),
            (SlotNak(4, (1, 2), 3), "slots", (1, 5)),
            (SessionAnnounce(8, 16, 512, 10, 40960), "n_groups", 11),
            (SessionFin("ejected"), "reason", "complete"),
        ],
        ids=lambda v: str(v)[:24],
    )
    def test_tampered_copy_fails_verification(self, packet, field, value):
        # dataclasses.replace carries the stale checksum into the new field
        # set — the in-memory analogue of a bit-flipped wire frame
        tampered = dataclasses.replace(packet, **{field: value})
        assert not control_intact(tampered)

    def test_none_checksum_is_unverifiable_and_accepted(self):
        # journals written before this change rebuild control packets with
        # checksum=None via explicit construction paths; they stay accepted
        poll = dataclasses.replace(Poll(1, 2, 3), checksum=None)
        # replace(..., checksum=None) re-stamps via __post_init__ — build
        # the unverifiable form the long way to pin the contract
        assert control_intact(poll)  # restamped, still intact
        object.__setattr__(poll, "checksum", None)
        assert control_intact(poll)

    def test_checksum_covers_type_name(self):
        # Poll(1, 2, 3) and Nak(1, 2, 3) share field values; their
        # checksums must differ so a type-confused frame cannot verify
        assert Poll(1, 2, 3).checksum != Nak(1, 2, 3).checksum

    def test_session_fin_rejects_unknown_reason(self):
        with pytest.raises(ValueError):
            SessionFin("made-up")


#: ``control_checksum_of`` for one instance of each control type, recorded
#: before the field names were cached per class: the checksum is part of
#: the wire frame and the journal, so it must never move
GOLDEN_CHECKSUMS = [
    (Poll(tg=3, sent=7, round=2), 3008996710),
    (Nak(tg=5, needed=2, round=1), 727302637),
    (SelectiveNak(tg=9, missing=(0, 4, 6), round=3), 1545963914),
    (GroupAbort(tg=11, round=4), 1555087787),
    (SlotNak(4, (1, 2, 6), 3), 2444236327),
    (SessionJoin(group=7, nonce=123456789), 814959764),
    (
        SessionAnnounce(
            k=7, h=32, packet_size=1024, n_groups=24, total_length=172032,
            codec="lrc",
        ),
        1081518000,
    ),
    (SessionComplete(delivered=24, failed=1), 380112995),
    (SessionFin(reason="ejected"), 1408010825),
]


class TestGoldenChecksums:
    @pytest.mark.parametrize(
        "packet,checksum", GOLDEN_CHECKSUMS, ids=lambda v: type(v).__name__
    )
    def test_value_is_pinned(self, packet, checksum):
        assert control_checksum_of(packet) == checksum
        assert packet.checksum == checksum

    def test_subclass_fields_are_its_own(self):
        # the field names are cached per class: a subclass that adds a
        # field must checksum it, not reuse its parent's tuple
        @dataclasses.dataclass(frozen=True)
        class TaggedPoll(Poll):
            tag: int = 0

        base = Poll(3, 7, 2)
        assert control_checksum_of(base) == 3008996710
        assert TaggedPoll(3, 7, 2, tag=1).checksum != TaggedPoll(
            3, 7, 2, tag=2
        ).checksum
        assert control_checksum_of(base) == 3008996710


class TestCorruptControlDropped:
    """A tampered control packet reaches a state machine and is ignored."""

    def test_np_receiver_drops_corrupt_poll(self):
        sim, network = make_network()
        config = NPConfig(k=2, h=2)
        NPSender(sim, network, b"x" * 64, config)
        receiver = NPReceiver(sim, network, n_groups=1, config=config,
                              rng=np.random.default_rng(1))
        corrupt = dataclasses.replace(Poll(0, 2, 1), tg=9999)
        receiver.on_packet(corrupt)
        assert receiver.stats.control_corrupt_discarded == 1
        assert receiver.stats.polls_received == 0

    def test_np_receiver_drops_corrupt_abort(self):
        sim, network = make_network()
        config = NPConfig(k=2, h=2)
        receiver = NPReceiver(sim, network, n_groups=3, config=config,
                              rng=np.random.default_rng(1))
        corrupt = dataclasses.replace(GroupAbort(2, 4), tg=0)
        receiver.on_packet(corrupt)
        # the healthy group 0 must NOT be marked failed by a corrupt abort
        assert receiver.failed_groups() == ()
        assert receiver.stats.groups_failed == 0
        assert receiver.stats.control_corrupt_discarded == 1

    def test_np_sender_drops_corrupt_nak(self):
        sim, network = make_network()
        config = NPConfig(k=2, h=4)
        sender = NPSender(sim, network, b"y" * 64, config)
        attach_sink(network)
        sender.start()
        sim.run()
        served_before = sender.stats.rounds_served
        corrupt = dataclasses.replace(Nak(0, 1, 1), needed=2)
        sender.on_feedback(corrupt)
        assert sender.stats.control_corrupt_discarded == 1
        assert sender.stats.naks_received == 0
        assert sender.stats.rounds_served == served_before

    def test_n2_sender_drops_corrupt_selective_nak(self):
        sim, network = make_network()
        config = NPConfig(k=2)
        sender = N2Sender(sim, network, b"z" * 64, config)
        attach_sink(network)
        sender.start()
        sim.run()
        corrupt = dataclasses.replace(SelectiveNak(0, (0,), 1), missing=(1,))
        sender.on_feedback(corrupt)
        assert sender.stats.control_corrupt_discarded == 1
        assert sender.stats.naks_received == 0

    def test_n2_receiver_drops_corrupt_poll(self):
        sim, network = make_network()
        config = NPConfig(k=2)
        N2Sender(sim, network, b"z" * 64, config)
        receiver = N2Receiver(sim, network, n_groups=1, config=config,
                              rng=np.random.default_rng(2))
        receiver.on_packet(dataclasses.replace(Poll(0, 2, 1), sent=1))
        assert receiver.stats.control_corrupt_discarded == 1
        assert receiver.stats.polls_received == 0

    def test_layered_sender_drops_corrupt_slot_nak(self):
        sim, network = make_network()
        config = NPConfig(k=2, h=1)
        sender = LayeredSender(sim, network, b"w" * 64, config)
        attach_sink(network)
        sender.start()
        sim.run()
        corrupt = dataclasses.replace(SlotNak(0, (0,), 1), slots=(1,))
        sender.on_feedback(corrupt)
        assert sender.stats.control_corrupt_discarded == 1
        assert sender.stats.naks_received == 0

    def test_intact_control_still_acted_on(self):
        # the happy path must be unchanged: a full transfer still completes
        sim, network = make_network()
        config = NPConfig(k=2, h=2)
        sender = NPSender(sim, network, b"q" * 64, config)
        receiver = NPReceiver(sim, network, n_groups=sender.n_groups,
                              config=config, rng=np.random.default_rng(3))
        sender.start()
        sim.run()
        assert receiver.complete
        assert receiver.stats.control_corrupt_discarded == 0
