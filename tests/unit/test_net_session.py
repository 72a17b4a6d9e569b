"""Unit tests: the clock-driven sender session, driven without sockets
or a loop through its ``send`` callable and the ``now`` argument of its
handlers, and the receiver's recovery rules, driven the same way through
a fake transport."""

import pytest

from repro import obs
from repro.fec.block import BlockEncoder
from repro.fec.rse import RSECodec
from repro.net.endpoints import _MIN_SCAN, _ReceiverProtocol
from repro.net.session import DONE, DRAINING, SenderSession
from repro.net.supervision import NetConfig
from repro.net.wire import decode_frame
from repro.protocols.packets import (
    DataPacket,
    Nak,
    ParityPacket,
    Poll,
    SessionAnnounce,
    SessionComplete,
    SessionFin,
)

ADDR = ("127.0.0.1", 40001)
NOW = 100.0


def make_session(config: NetConfig, data: bytes = bytes(range(256))):
    sent: list = []
    session = SenderSession(
        session_id=1,
        group=0,
        data=data,
        config=config,
        send=lambda packet, addr: sent.append((packet, addr)),
        now=NOW,
    )
    return session, sent


def flush(session: SenderSession) -> None:
    """What the driver does between inbound frames: fan out every frame
    the session has, as fast as an unpaced pacer lets it."""
    while (packet := session.pop()) is not None:
        session.fanout(packet)


class TestEjectedMemberCompletes:
    def test_completion_clears_the_ejected_flag(self):
        # ejected for silence while its last repairs were in flight, then
        # its SessionComplete arrives: it has the bytes, so the session is
        # complete — not "degraded", and not held open for a revive
        config = NetConfig(k=4, h=4, packet_size=16, revive_window=30.0)
        session, sent = make_session(config)
        assert session.add_member(ADDR, NOW)
        session.members[ADDR].ejected = True

        session.on_frame(
            SessionComplete(delivered=session.n_groups), ADDR, NOW
        )

        assert session.state == DONE, "no revive wait for a delivered member"
        report = session.report
        assert report.outcome == "complete"
        assert (report.members, report.completed, report.ejected) == (1, 1, 0)
        assert report.revived == 1
        assert sent[-1] == (SessionFin("complete"), ADDR)

    def test_other_ejected_members_still_degrade_the_session(self):
        config = NetConfig(k=4, h=4, packet_size=16)
        session, _ = make_session(config)
        other = ("127.0.0.1", 40002)
        for addr in (ADDR, other):
            assert session.add_member(addr, NOW)
            session.members[addr].ejected = True

        session.on_frame(
            SessionComplete(delivered=session.n_groups), ADDR, NOW
        )

        report = session.report
        assert report.outcome == "degraded"
        assert (report.completed, report.ejected) == (1, 1)


class TestParitiesOnDemand:
    def test_building_a_session_encodes_nothing(self):
        # a join costs the server slicing, not h/k times the payload in
        # parities nobody asked for
        config = NetConfig(k=4, h=8, packet_size=16)
        RSECodec(config.k, config.h)  # the generator matrix is built once
        with obs.capture() as registry:
            session, _ = make_session(config)
            counters = registry.snapshot().counter_values()
        assert not any(
            metric in ("rse.blocks_encoded", "galois.matmul_calls")
            for metric, _ in counters
        )
        assert all(group.parities == [] for group in session.encoder.groups)
        # the first repair request for a group encodes that group only
        assert len(session.encoder.parity_packet(1, 0)) == 16
        assert [len(g.parities) for g in session.encoder.groups] == [0, 8, 0, 0]


class TestMaxRounds:
    def test_zero_means_unlimited(self):
        # NPConfig documents 0 as "unlimited" and NetConfig promises the
        # simulator's policy: a NAK at max_rounds=0 is served, not aborted
        config = NetConfig(
            k=4, h=4, packet_size=16, max_rounds=0,
            nak_aggregation=0.0, pace_interval=0.0,
        )
        session, sent = make_session(config)
        assert session.add_member(ADDR, NOW)
        session.state = DRAINING
        del sent[:]
        session.on_frame(Nak(tg=0, needed=1, round=1), ADDR, NOW)
        session.wake(NOW)  # the aggregation window closes at once
        flush(session)
        packets = [packet for packet, _ in sent]
        assert [type(packet) for packet in packets] == [ParityPacket, Poll]
        assert packets[0].tg == 0 and packets[0].index == config.k
        assert packets[1] == Poll(0, 1, 2)
        assert session.rounds_served == 1


class TestMidFlushWindow:
    def test_same_round_nak_during_a_flush_opens_no_second_window(self):
        """A round-1 NAK that lands while round 1's flush waits in the
        queue asks for the shortfall that flush is serving: it must not
        open a second window and serve it again in round 2."""
        config = NetConfig(
            k=4, h=4, packet_size=16, pace_burst=1, pace_interval=0.004
        )
        sent: list = []
        session = SenderSession(
            session_id=1,
            group=0,
            data=bytes(range(256)),
            config=config,
            send=lambda packet, addr: sent.append(packet),
            now=NOW,
        )
        assert session.add_member(ADDR, NOW)
        session.state = DRAINING
        del sent[:]
        session.on_frame(Nak(tg=0, needed=2, round=1), ADDR, NOW)
        now = NOW + config.nak_aggregation
        session.wake(now)
        session.fanout(session.pop())  # the first parity; the rest wait
        assert [type(packet) for packet in sent] == [ParityPacket]
        session.on_frame(Nak(tg=0, needed=2, round=1), ADDR, now)
        for _ in range(25):  # 100 ms of the driver: one frame per gate
            now += config.pace_interval
            session.wake(now)
            if (packet := session.pop()) is not None:
                session.fanout(packet)
        assert [type(packet) for packet in sent] == [
            ParityPacket, ParityPacket, Poll,
        ]
        assert sent[-1] == Poll(0, 2, 2)
        assert (session.rounds_served, session.parities_sent) == (1, 2)
        assert session.naks_received == 2


class _FakeTransport:
    """Collects what the receiver sends, decoded."""

    def __init__(self):
        self.sent: list = []

    def sendto(self, data: bytes) -> None:
        self.sent.append(decode_frame(data).packet)


class ReceiverHarness:
    """A ``_ReceiverProtocol`` fed by hand on a fake clock.

    The handlers take ``now`` as an argument, so no loop, socket or sleep
    is involved: ``stream`` plays the sender's part of a group, frame by
    frame, with scripted drops.
    """

    K, H, SIZE, GROUPS = 4, 4, 32, 6

    def __init__(self):
        self.config = NetConfig(k=self.K, h=self.H, packet_size=self.SIZE)
        self.base_delay = self.config.nak_retry.base_delay
        self.payload = bytes(range(256)) * 3  # 6 groups x 4 x 32 bytes
        self.encoder = BlockEncoder(
            self.payload, k=self.K, h=self.H, packet_size=self.SIZE
        )
        self.protocol = _ReceiverProtocol(self.config, group=0)
        self.wire = self.protocol.transport = _FakeTransport()
        self.protocol._on_announce(
            SessionAnnounce(
                k=self.K, h=self.H, packet_size=self.SIZE,
                n_groups=self.GROUPS, total_length=len(self.payload),
            ),
            session_id=1,
        )

    @property
    def naks(self) -> list:
        return [p for p in self.wire.sent if isinstance(p, Nak)]

    def data(self, tg: int, index: int, now: float) -> None:
        self.protocol._on_payload(
            DataPacket(tg, index, self.encoder.data_packet(tg, index)), now
        )

    def parity(self, tg: int, now: float, j: int = 0) -> None:
        self.protocol._on_payload(
            ParityPacket(tg, self.K + j, self.encoder.parity_packet(tg, j)),
            now,
        )

    def poll(self, tg: int, now: float) -> None:
        self.protocol._on_poll(Poll(tg, self.K, 1), now)

    def stream(self, tg, now, lose=(), poll=True) -> float:
        """Group ``tg`` as the sender streams it, 1 ms a frame."""
        for index in range(self.K):
            if index not in lose:
                self.data(tg, index, now)
            now += 0.001
        if poll:
            self.poll(tg, now)
        return now + 0.001

    def measure_a_response(self, now: float) -> float:
        """Group 0 loses a packet and is repaired 10 ms after its NAK:
        the estimator's first sample (rto = 30 ms)."""
        now = self.stream(0, now, lose={1})
        assert self.naks == [Nak(0, 1, 1)]
        self.parity(0, now + 0.009)
        assert self.protocol.scheduler.rto == pytest.approx(0.03, abs=1e-6)
        return now + 0.01


class TestImplicitPoll:
    def test_lost_poll_is_answered_at_the_next_groups_first_frame(self):
        rx = ReceiverHarness()
        now = 50.0
        for tg in range(3):
            now = rx.stream(tg, now)
        polled_at = rx.stream(3, now, lose={2}, poll=False)
        assert rx.naks == []
        rx.data(4, 0, polled_at)
        # as if Poll(3, k, 1) had been heard, and no later than it would
        assert rx.naks == [Nak(3, 1, 1)]
        assert rx.protocol.implicit_polls == 1
        assert rx.protocol.machine.rounds[3] == 1
        rx.parity(3, polled_at + 0.011)
        assert 3 in rx.protocol.machine.delivered
        assert rx.protocol.scheduler.retries_granted == 0
        assert polled_at + 0.011 - now < rx.base_delay

    def test_a_poll_of_a_later_group_implies_it_too(self):
        rx = ReceiverHarness()
        now = rx.stream(0, 50.0)
        now = rx.stream(1, now, lose={0}, poll=False)
        rx.poll(2, now)  # every data packet of group 2 was lost
        assert rx.naks == [Nak(1, 1, 1), Nak(2, ReceiverHarness.K, 1)]
        assert rx.protocol.implicit_polls == 1

    def test_a_group_lost_whole_is_nakked_for_all_k(self):
        rx = ReceiverHarness()
        now = rx.stream(0, 50.0)
        rx.data(2, 0, now)
        assert rx.naks == [Nak(1, ReceiverHarness.K, 1)]

    def test_heard_polls_and_whole_groups_imply_nothing(self):
        rx = ReceiverHarness()
        now = rx.stream(0, 50.0)
        now = rx.stream(1, now, lose={3})  # poll heard: one NAK, explicit
        now = rx.stream(2, now, poll=False)  # complete: its poll is moot
        rx.stream(3, now)
        assert rx.naks == [Nak(1, 1, 1)]
        assert rx.protocol.implicit_polls == 0

    def test_a_repair_of_the_same_group_implies_nothing(self):
        # the next round's poll is right behind it; a round-1 NAK sent now
        # could reach the sender mid-flush and buy a second set of repairs
        rx = ReceiverHarness()
        now = rx.stream(0, 50.0, lose={0, 1}, poll=False)
        rx.parity(0, now)
        assert rx.naks == []


class TestRoundMemory:
    def test_a_late_poll_does_not_roll_the_round_back(self):
        # round 2's poll overtakes round 1's: re-NAKs must name round 2,
        # or the sender takes every one of them for stale and re-polls
        # instead of repairing
        rx = ReceiverHarness()
        now = rx.stream(0, 50.0, lose={0, 1}, poll=False)
        rx.protocol._on_poll(Poll(0, 1, 2), now)
        rx.protocol._on_poll(Poll(0, 4, 1), now + 0.001)
        assert rx.naks == [Nak(0, 2, 2)]
        for step in range(1, 4):
            rx.protocol.solicit(now + step * 4 * rx.base_delay)
        retries = [nak for nak in rx.naks[1:] if nak.tg == 0]
        assert retries
        assert all(nak.round == 2 for nak in retries)


class TestEarlyRenak:
    def test_dropped_nak_is_repeated_once_within_the_response_time(self):
        rx = ReceiverHarness()
        now = rx.measure_a_response(50.0)
        for tg in (1, 2):
            now = rx.stream(tg, now)
        now = rx.stream(3, now, lose={0}, poll=False)
        rx.data(4, 0, now)  # the implied poll; say its NAK is dropped
        assert rx.naks[1:] == [Nak(3, 1, 1)]
        rto = rx.protocol.scheduler.rto
        assert rx.protocol.solicit(now + rto - 0.001) == []
        assert len(rx.naks) == 2
        rx.protocol.solicit(now + rto + 0.001)
        assert rx.naks[2:] == [Nak(3, 1, 1)]
        assert rx.protocol.early_renaks == 1
        # once: the next silence is the configured one
        rx.protocol.solicit(now + 2 * rto + 0.002)
        rx.protocol.solicit(now + rx.base_delay * 0.7)
        assert len(rx.naks) == 3
        rx.parity(3, now + rto + 0.012)
        assert 3 in rx.protocol.machine.delivered
        assert rx.protocol.scheduler.retries_granted == 0
        assert rto + 0.012 < rx.base_delay

    def test_without_a_sample_only_the_watchdog_repeats_it(self):
        rx = ReceiverHarness()
        now = rx.stream(0, 50.0, lose={0})
        assert rx.naks == [Nak(0, 1, 1)]
        assert rx.protocol.solicit(now + rx.base_delay * 0.7) == []
        rx.data(1, 0, now + rx.base_delay * 0.9)  # the stream is alive
        assert rx.protocol.solicit(now + rx.base_delay) == [0]
        assert rx.naks == [Nak(0, 1, 1)] * 2
        assert rx.protocol.early_renaks == 0
        assert rx.protocol.scheduler.retries_granted == 1


class TestLastGroupsPoll:
    LAST = ReceiverHarness.GROUPS - 1

    def test_silence_after_the_last_group_implies_its_poll(self):
        rx = ReceiverHarness()
        now = rx.measure_a_response(50.0)
        for tg in range(1, self.LAST):
            now = rx.stream(tg, now)
        now = rx.stream(self.LAST, now, lose={1}, poll=False)
        heard_at = now - 0.002  # index 3, the last frame that arrived
        rto = rx.protocol.scheduler.rto
        assert rx.protocol.solicit(heard_at + rto - 0.001) == []
        assert len(rx.naks) == 1
        rx.protocol.solicit(heard_at + rto + 0.001)
        assert rx.naks[1:] == [Nak(self.LAST, 1, 1)]
        assert rx.protocol.implicit_polls == 1
        assert rx.protocol.early_renaks == 0
        rx.parity(self.LAST, heard_at + rto + 0.012)
        assert rx.protocol.done
        assert rx.protocol.scheduler.retries_granted == 0
        assert rto + 0.012 < rx.base_delay

    def test_a_gap_inside_the_last_group_is_not_silence(self):
        rx = ReceiverHarness()
        now = rx.measure_a_response(50.0)
        for tg in range(1, self.LAST):
            now = rx.stream(tg, now)
        rto = rx.protocol.scheduler.rto
        for index in range(ReceiverHarness.K):
            rx.data(self.LAST, index, now)
            now += rto * 0.9
            rx.protocol.solicit(now - 0.0001)
        assert len(rx.naks) == 1 and rx.protocol.done

    def test_an_earlier_group_mid_stream_is_not_owed_an_answer(self):
        rx = ReceiverHarness()
        now = rx.measure_a_response(50.0)
        rx.data(1, 0, now)  # the sender stalls inside group 1
        rx.protocol.solicit(now + 0.2)
        assert len(rx.naks) == 1 and rx.protocol.implicit_polls == 0


class TestScanDelay:
    def test_idle_receiver_sleeps_a_whole_tick(self):
        rx = ReceiverHarness()
        assert rx.protocol.scan_delay(50.0) == rx.protocol.scheduler.tick

    def test_sleeps_until_the_earliest_deadline(self):
        rx = ReceiverHarness()
        now = rx.measure_a_response(50.0)
        now = rx.stream(1, now, lose={0})  # NAK out at now - 1 ms
        rto = rx.protocol.scheduler.rto
        assert rx.protocol.scan_delay(now) == pytest.approx(rto - 0.001)
        assert rx.protocol.scan_delay(now + rto) == _MIN_SCAN  # overdue
        rx.protocol.solicit(now + rto)
        # early re-NAK spent: the watchdog deadline is next, but a NAK
        # sent meanwhile may fall due one response time from now
        assert rx.protocol.scan_delay(now + rto) == pytest.approx(rto)

    def test_never_longer_than_a_tick(self):
        rx = ReceiverHarness()
        now = rx.stream(0, 50.0, lose={0})  # no sample: watchdog only
        assert rx.protocol.scan_delay(now) == rx.protocol.scheduler.tick


class TestUnusableFrames:
    """Frames that pass the wire's CRC but not the session: each is one
    discard, counted under ``net.frame_errors{reason}``, and the transfer
    goes on as if it had been lost."""

    @pytest.mark.parametrize("codec", ["no-such-codec", "xor", "lrc"])
    def test_an_announce_with_an_unknown_codec_is_discarded(self, codec):
        # a real code the tree does not build counts like a made-up name
        protocol = _ReceiverProtocol(NetConfig(), group=0)
        good = SessionAnnounce(
            k=4, h=4, packet_size=32, n_groups=1, total_length=128
        )
        bad = SessionAnnounce(
            k=4, h=4, packet_size=32, n_groups=1, total_length=128,
            codec=codec,
        )
        with obs.capture() as registry:
            protocol._on_announce(bad, session_id=1)
            snapshot = registry.snapshot()
        assert snapshot.value("net.frame_errors", reason="bad_announce") == 1
        assert protocol.announce is None and protocol.frame_errors == 1
        # the server's re-announce is not taken for a duplicate
        protocol._on_announce(good, session_id=1)
        assert protocol.announce == good
        protocol._on_payload(DataPacket(0, 0, bytes(32)), 50.0)
        assert protocol.machine.missing(0) == 3

    def test_an_index_past_the_block_is_discarded(self):
        rx = ReceiverHarness()
        with obs.capture() as registry:
            rx.protocol._on_payload(DataPacket(0, 9000, bytes(32)), 50.0)
            rx.stream(0, 50.0)
            snapshot = registry.snapshot()
        assert snapshot.value("net.frame_errors", reason="bad_index") == 1
        assert 0 in rx.protocol.machine.delivered
        assert rx.protocol.frame_errors == 1

    def test_a_payload_of_the_wrong_length_is_discarded(self):
        rx = ReceiverHarness()
        with obs.capture() as registry:
            rx.protocol._on_payload(DataPacket(0, 1, bytes(5)), 50.0)
            rx.stream(0, 50.0)
            snapshot = registry.snapshot()
        assert snapshot.value("net.frame_errors", reason="bad_length") == 1
        assert 0 in rx.protocol.machine.delivered
        group = ReceiverHarness.K * ReceiverHarness.SIZE
        assemble = rx.protocol.machine.assemble
        assert assemble(len(rx.payload))[:group] == rx.payload[:group]
