"""Unit tests for the protocol state machines (NP, N2, layered).

End-to-end behaviour is covered by tests/integration/test_transfers.py;
here we pin down the state-machine details: packet sequencing, round
bookkeeping, exhaustion fallback, stale-NAK handling.
"""

import numpy as np
import pytest

from repro.protocols.n2 import N2Receiver, N2Sender
from repro.protocols.np_protocol import NPConfig, NPReceiver, NPSender
from repro.protocols.packets import DataPacket, Nak, ParityPacket, Poll, SelectiveNak
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss
from repro.sim.network import MulticastNetwork


def make_network(n_receivers=1, p=0.0, seed=0, latency=0.001):
    sim = Simulator()
    network = MulticastNetwork(
        sim, BernoulliLoss(n_receivers, p), np.random.default_rng(seed),
        latency=latency,
    )
    return sim, network


class RecordingReceiver:
    """Bare packet sink standing in for a real receiver."""

    def __init__(self, network):
        self.packets = []
        network.attach_receiver(self.packets.append)

    def of_type(self, packet_type):
        return [p for p in self.packets if isinstance(p, packet_type)]


class TestNPConfig:
    def test_defaults_match_paper(self):
        config = NPConfig()
        assert config.k == 7
        assert config.packet_interval == 0.040

    def test_validation(self):
        with pytest.raises(ValueError):
            NPConfig(k=0)
        with pytest.raises(ValueError):
            NPConfig(h=-1)
        with pytest.raises(ValueError):
            NPConfig(packet_interval=0.0)


class TestNPSender:
    def test_initial_transmission_order_and_pacing(self):
        sim, network = make_network()
        sink = RecordingReceiver(network)
        config = NPConfig(k=3, h=4, packet_size=16, packet_interval=0.01)
        sender = NPSender(sim, network, b"x" * 96, config)  # 6 pkts, 2 TGs
        sender.start()
        sim.run()
        data = sink.of_type(DataPacket)
        assert [(p.tg, p.index) for p in data] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]
        polls = sink.of_type(Poll)
        assert [(p.tg, p.sent, p.round) for p in polls] == [
            (0, 3, 1), (1, 3, 1),
        ]
        assert sender.stats.data_sent == 6

    def test_nak_interrupts_current_group(self):
        sim, network = make_network()
        sink = RecordingReceiver(network)
        config = NPConfig(k=3, h=4, packet_size=16, packet_interval=0.01)
        sender = NPSender(sim, network, b"x" * 96, config)
        sender.start()
        # inject a NAK for TG0 while TG1 is still being sent
        sim.schedule(0.032, lambda: sender.on_feedback(Nak(0, 2, 1)))
        sim.run()
        kinds = [
            (p.tg, isinstance(p, ParityPacket))
            for p in sink.packets
            if isinstance(p, (DataPacket, ParityPacket))
        ]
        # the two TG0 parities must appear before the last TG1 data packet
        parity_positions = [i for i, (tg, is_par) in enumerate(kinds) if is_par]
        last_data_tg1 = max(
            i for i, (tg, is_par) in enumerate(kinds) if not is_par and tg == 1
        )
        assert parity_positions and max(parity_positions) < last_data_tg1
        assert sender.stats.parity_sent == 2

    def test_round_advances_per_service(self):
        sim, network = make_network()
        sink = RecordingReceiver(network)
        config = NPConfig(k=2, h=8, packet_size=8)
        sender = NPSender(sim, network, b"y" * 16, config)
        sender.start()
        sim.run()
        sender.on_feedback(Nak(0, 1, 1))
        sim.run()
        sender.on_feedback(Nak(0, 2, 2))
        sim.run()
        polls = sink.of_type(Poll)
        assert [(p.round, p.sent) for p in polls] == [(1, 2), (2, 1), (3, 2)]

    def test_stale_nak_triggers_repoll_not_service(self):
        sim, network = make_network()
        sink = RecordingReceiver(network)
        config = NPConfig(k=2, h=8, packet_size=8)
        sender = NPSender(sim, network, b"y" * 16, config)
        sender.start()
        sim.run()
        sender.on_feedback(Nak(0, 1, 1))  # valid: round becomes 2
        sim.run()
        parities_after_first = sender.stats.parity_sent
        sender.on_feedback(Nak(0, 3, 1))  # stale round
        sim.run()
        assert sender.stats.parity_sent == parities_after_first
        assert sender.stats.naks_stale == 1
        assert sink.of_type(Poll)[-1].round == 2  # re-poll with current round

    def test_parity_exhaustion_arq_fallback(self):
        sim, network = make_network()
        sink = RecordingReceiver(network)
        config = NPConfig(k=2, h=1, packet_size=8)
        sender = NPSender(sim, network, b"z" * 16, config)
        sender.start()
        sim.run()
        sender.on_feedback(Nak(0, 2, 1))  # needs 2, only 1 parity left
        sim.run()
        assert sender.stats.parity_sent == 1
        assert sender.stats.retransmissions_sent == 1
        retransmitted = [p for p in sink.of_type(DataPacket) if p.generation > 0]
        assert len(retransmitted) == 1

    def test_forged_shortfall_is_clamped_to_k(self):
        """``needed`` is a u32 on the wire; no receiver is short more than
        k, so a forged count must not size the repair queue."""
        sim, network = make_network()
        sink = RecordingReceiver(network)
        config = NPConfig(k=3, h=2, packet_size=8)
        sender = NPSender(sim, network, b"z" * 24, config)
        sender.start()
        sim.run()
        sender.on_feedback(Nak(0, 4_000_000_000, 1))
        sim.run()
        assert sender.stats.parity_sent == 2
        assert sender.stats.retransmissions_sent == 1
        assert sink.of_type(Poll)[-1].sent == config.k

    def test_nonsense_naks_ignored(self):
        sim, network = make_network()
        RecordingReceiver(network)
        sender = NPSender(sim, network, b"q" * 8, NPConfig(k=2, h=2, packet_size=8))
        sender.start()
        sim.run()
        sender.on_feedback(Nak(99, 1, 1))  # unknown group
        sender.on_feedback(Nak(0, 0, 1))  # zero need
        sender.on_feedback("not a nak")
        sim.run()
        assert sender.stats.parity_sent == 0


class TestNPReceiver:
    def build(self, k=3, h=4, n_groups=1, on_complete=None):
        sim, network = make_network()
        config = NPConfig(k=k, h=h, packet_size=8, slot_time=0.01)
        receiver = NPReceiver(
            sim, network, n_groups, config,
            rng=np.random.default_rng(1), on_complete=on_complete,
        )
        network.attach_sender(lambda packet: None)
        return sim, network, receiver

    def test_decodes_from_any_k_packets(self):
        from repro.fec.rse import RSECodec

        sim, network, receiver = self.build()
        codec = RSECodec(3, 4)
        data = [bytes([i]) * 8 for i in range(3)]
        parities = codec.encode(data)
        receiver.on_packet(DataPacket(0, 1, data[1]))
        receiver.on_packet(ParityPacket(0, 3, parities[0]))
        assert not receiver.complete
        receiver.on_packet(ParityPacket(0, 5, parities[2]))
        assert receiver.complete
        assert receiver.delivered_data(24) == b"".join(data)
        assert receiver.stats.packets_reconstructed == 2

    def test_poll_triggers_counted_nak(self):
        sim, network, receiver = self.build()
        sender_inbox = []
        network._sender_handler = sender_inbox.append
        receiver.on_packet(DataPacket(0, 0, b"\x00" * 8))
        receiver.on_packet(Poll(0, 3, 1))
        sim.run()
        naks = [p for p in sender_inbox if isinstance(p, Nak)]
        assert len(naks) == 1
        assert naks[0] == Nak(0, 2, 1)

    def test_poll_for_complete_group_ignored(self):
        sim, network, receiver = self.build(k=1, h=2)
        sender_inbox = []
        network._sender_handler = sender_inbox.append
        receiver.on_packet(DataPacket(0, 0, b"\x01" * 8))
        receiver.on_packet(Poll(0, 1, 1))
        sim.run()
        assert not any(isinstance(p, Nak) for p in sender_inbox)

    def test_nak_recomputed_at_slot_time(self):
        # packets arriving between poll and slot shrink the request
        sim, network, receiver = self.build()
        sender_inbox = []
        network._sender_handler = sender_inbox.append
        receiver.on_packet(Poll(0, 3, 1))  # missing all 3
        # repair arrives before the NAK slot fires
        sim.schedule(0.0, lambda: receiver.on_packet(DataPacket(0, 0, b"\x00" * 8)))
        sim.run()
        naks = [p for p in sender_inbox if isinstance(p, Nak)]
        assert naks and naks[0].needed == 2

    def test_overheard_nak_suppresses(self):
        sim, network, receiver = self.build()
        sender_inbox = []
        network._sender_handler = sender_inbox.append
        receiver.on_packet(Poll(0, 3, 1))
        receiver.on_packet(Nak(0, 3, 1))  # someone else asked for >= our need
        sim.run()
        assert not any(isinstance(p, Nak) for p in sender_inbox)
        assert receiver.slotter.stats.naks_suppressed == 1

    def test_completion_callback(self):
        completed = []
        sim, network, receiver = self.build(
            k=1, h=1, n_groups=2, on_complete=completed.append
        )
        receiver.on_packet(DataPacket(0, 0, b"a" * 8))
        assert completed == []
        receiver.on_packet(DataPacket(1, 0, b"b" * 8))
        assert completed == [receiver.receiver_id]

    def test_delivered_data_requires_completion(self):
        sim, network, receiver = self.build(n_groups=2)
        with pytest.raises(RuntimeError, match="missing groups"):
            receiver.delivered_data()

    def test_duplicate_accounting(self):
        sim, network, receiver = self.build()
        packet = DataPacket(0, 0, b"\x00" * 8)
        receiver.on_packet(packet)
        receiver.on_packet(packet)
        assert receiver.stats.duplicates == 1


class TestN2:
    def test_sender_retransmits_exact_indices(self):
        sim, network = make_network()
        sink = RecordingReceiver(network)
        config = NPConfig(k=4, packet_size=8)
        sender = N2Sender(sim, network, b"m" * 32, config)
        sender.start()
        sim.run()
        sender.on_feedback(SelectiveNak(0, (1, 3), 1))
        sim.run()
        from repro.protocols.packets import Retransmission

        repairs = sink.of_type(Retransmission)
        assert [(p.tg, p.index) for p in repairs] == [(0, 1), (0, 3)]

    def test_overlapping_naks_deduplicated_within_round(self):
        sim, network = make_network(latency=0.0001)
        sink = RecordingReceiver(network)
        config = NPConfig(k=4, packet_size=8)
        sender = N2Sender(sim, network, b"m" * 32, config)
        sender.start()
        sim.run()
        # two NAKs of the same round arriving back to back (suppression miss)
        sender.on_feedback(SelectiveNak(0, (1, 3), 1))
        sender.on_feedback(SelectiveNak(0, (1,), 1))
        sim.run()
        assert sender.stats.retransmissions_sent == 2  # 1 and 3 once each

    def test_receiver_naks_missing_indices(self):
        sim, network = make_network()
        config = NPConfig(k=3, packet_size=8, slot_time=0.01)
        receiver = N2Receiver(
            sim, network, 1, config, rng=np.random.default_rng(2)
        )
        inbox = []
        network.attach_sender(inbox.append)
        receiver.on_packet(DataPacket(0, 1, b"x" * 8))
        receiver.on_packet(Poll(0, 3, 1))
        sim.run()
        naks = [p for p in inbox if isinstance(p, SelectiveNak)]
        assert naks and naks[0].missing == (0, 2)

    def test_receiver_superset_suppression_only(self):
        sim, network = make_network()
        config = NPConfig(k=3, packet_size=8, slot_time=0.01)
        receiver = N2Receiver(
            sim, network, 1, config, rng=np.random.default_rng(3)
        )
        inbox = []
        network.attach_sender(inbox.append)
        receiver.on_packet(DataPacket(0, 1, b"x" * 8))
        receiver.on_packet(Poll(0, 3, 1))
        # overheard NAK covers only one of our two missing -> keep ours
        receiver.on_packet(SelectiveNak(0, (0,), 1))
        sim.run()
        assert any(isinstance(p, SelectiveNak) for p in inbox)

    def test_receiver_superset_suppression_applies(self):
        sim, network = make_network()
        config = NPConfig(k=3, packet_size=8, slot_time=0.01)
        receiver = N2Receiver(
            sim, network, 1, config, rng=np.random.default_rng(4)
        )
        inbox = []
        network.attach_sender(inbox.append)
        receiver.on_packet(DataPacket(0, 1, b"x" * 8))
        receiver.on_packet(Poll(0, 3, 1))
        receiver.on_packet(SelectiveNak(0, (0, 2), 1))  # superset of ours
        sim.run()
        assert not any(isinstance(p, SelectiveNak) for p in inbox)
