"""Unit tests: the transport-agnostic sender session, driven without
sockets through its ``send`` / ``now`` callables."""

import asyncio

from repro import obs
from repro.fec.rse import RSECodec
from repro.net.session import DONE, DRAINING, SenderSession
from repro.net.supervision import NetConfig
from repro.protocols.packets import (
    Nak,
    ParityPacket,
    Poll,
    SessionComplete,
    SessionFin,
    SessionJoin,
)

ADDR = ("127.0.0.1", 40001)


def make_session(config: NetConfig, data: bytes = bytes(range(256))):
    clock = [100.0]
    sent: list = []
    session = SenderSession(
        session_id=1,
        group=0,
        data=data,
        config=config,
        send=lambda packet, addr: sent.append((packet, addr)),
        now=lambda: clock[0],
    )
    return session, sent, clock


class TestEjectedMemberCompletes:
    def test_completion_clears_the_ejected_flag(self):
        # ejected for silence while its last repairs were in flight, then
        # its SessionComplete arrives: it has the bytes, so the session is
        # complete — not "degraded", and not held open for a revive
        config = NetConfig(k=4, h=4, packet_size=16, revive_window=30.0)
        session, sent, _ = make_session(config)
        assert session.add_member(ADDR, SessionJoin(group=0, nonce=7))
        session.members[ADDR].ejected = True

        session.on_frame(SessionComplete(delivered=session.n_groups), ADDR)

        assert session.state == DONE, "no revive wait for a delivered member"
        report = session.report
        assert report.outcome == "complete"
        assert (report.members, report.completed, report.ejected) == (1, 1, 0)
        assert report.revived == 1
        assert sent[-1] == (SessionFin("complete"), ADDR)

    def test_other_ejected_members_still_degrade_the_session(self):
        config = NetConfig(k=4, h=4, packet_size=16)
        session, _, _ = make_session(config)
        other = ("127.0.0.1", 40002)
        for addr in (ADDR, other):
            assert session.add_member(addr, SessionJoin(group=0, nonce=1))
            session.members[addr].ejected = True

        session.on_frame(SessionComplete(delivered=session.n_groups), ADDR)

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
            session, _, _ = make_session(config)
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

        async def one_nak():
            session, sent, _ = make_session(config)
            assert session.add_member(ADDR, SessionJoin(group=0, nonce=7))
            session.state = DRAINING
            del sent[:]
            session.on_frame(Nak(tg=0, needed=1, round=1), ADDR)
            for _ in range(5):  # the aggregation timer, then the flush task
                await asyncio.sleep(0)
            return session, [packet for packet, _ in sent]

        session, packets = asyncio.run(one_nak())
        assert [type(packet) for packet in packets] == [ParityPacket, Poll]
        assert packets[0].tg == 0 and packets[0].index == config.k
        assert packets[1] == Poll(0, 1, 2)
        assert session.rounds_served == 1
