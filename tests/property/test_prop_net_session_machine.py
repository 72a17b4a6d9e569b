"""Stateful fuzz of the clock-driven sender session and its NP machine.

Hypothesis drives ``SenderSession`` directly -- no socket, no loop --
through any interleaving of what a network and its peers can hand it:
joins (duplicate, and from addresses that never joined in time), NAKs of
the current, an earlier or a later round with any ``needed`` a u32 can
carry and any group number, NAKs that arrive while a re-poll of their
group is queued, control frames whose checksum fails, completions,
trace-context packets, jumps of the clock and the driver's pops of the
send queue.  It runs at the sockets' default aggregation window and at
the simulator's window of 0, so the repair machine both senders share is
fuzzed under each driver's setting.  After every step:

* the members are a subset of the distinct addresses that joined while
  the session was gathering;
* a group's round never decreases and never passes ``max_rounds``;
* a round's shortfall never passes ``k``, and each served round queues
  at most ``k`` repairs plus its one poll;
* each group has at most one re-poll queued;
* every packet the session emits encodes as a wire frame;
* once woken at or past ``session_deadline`` the session is DONE, and it
  is DONE exactly when it holds a report with a typed outcome.
"""

from collections import Counter
from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.net.session import (
    DONE,
    DRAINING,
    GATHERING,
    STREAMING,
    SenderSession,
)
from repro.net.supervision import NetConfig
from repro.net.wire import TraceContextPacket, encode_frame
from repro.protocols.packets import (
    DataPacket,
    Nak,
    ParityPacket,
    Poll,
    SessionComplete,
    control_checksum_of,
)

K, H, GROUPS = 4, 2, 2  # h < k: a round can cross into the ARQ fallback
CONFIG = NetConfig(
    k=K, h=H, packet_size=16, max_rounds=2, nak_aggregation=0.01,
    member_timeout=1.0, session_deadline=6.0, revive_window=0.5,
)
PEERS = [("127.0.0.1", 40001 + i) for i in range(4)]
START = 100.0
SESSION_ID = 3

peers = st.integers(0, len(PEERS) - 1)
needed = st.integers(0, K + 1) | st.integers(0, 2**32 - 1)
groups = st.integers(0, GROUPS - 1) | st.integers(GROUPS, 2**32 - 1)


class SenderSessionMachine(RuleBasedStateMachine):
    config = CONFIG

    @initialize(
        joiners=st.lists(peers, min_size=1, max_size=6),
        streaming=st.booleans(),
    )
    def build(self, joiners, streaming):
        self.now = START
        self.sent: list = []
        self.session = SenderSession(
            session_id=SESSION_ID,
            group=0,
            data=bytes(range(K * 16 * GROUPS)),
            config=self.config,
            send=self._send,
            now=self.now,
            trace_id="0123456789abcdef0123456789abcdef",
        )
        self.gathering_joiners: set = set()
        self.rounds = [1] * GROUPS
        self.woken_at: float | None = None
        for peer in joiners:  # duplicates included
            self.join(peer)
        if streaming:  # else the first clock jump past it closes it
            self.now += self.config.join_window
            self._wake()

    def _send(self, packet, *addrs) -> None:
        assert all(addr in self.session.members for addr in addrs)
        encode_frame(packet, SESSION_ID)  # raises FrameError if not
        self.sent.extend((packet, addr) for addr in addrs)

    # -- the network ------------------------------------------------------
    @rule(peer=peers)
    def join(self, peer):
        addr = PEERS[peer]
        if self.session.state == GATHERING:
            self.gathering_joiners.add(addr)
        if self.session.add_member(addr, self.now):
            assert addr in self.gathering_joiners

    @rule(peer=peers, tg=st.integers(0, GROUPS - 1), needed=needed)
    def nak(self, peer, tg, needed):
        """A NAK of the current round: the one that buys repairs."""
        nak = Nak(tg, needed, self.rounds[tg])
        self.session.on_frame(nak, PEERS[peer], self.now)

    @rule(
        peer=peers,
        tg=groups,
        needed=needed,
        offset=st.sampled_from((-1, -2, 1, 2**20)),
    )
    def odd_nak(self, peer, tg, needed, offset):
        """A stale or early round, any shortfall, any group."""
        current = self.rounds[tg] if tg < GROUPS else 1
        nak = Nak(tg, needed, max(0, current + offset))
        self.session.on_frame(nak, PEERS[peer], self.now)

    @rule(
        peer=peers,
        tg=st.integers(0, GROUPS - 1),
        needed=st.integers(1, K + 1),
        stale=st.booleans(),
    )
    def nak_behind_a_repoll(self, peer, tg, needed, stale):
        """A stale NAK queues a re-poll; a second NAK of the group lands
        before the driver pops it.  A stale one buys no second re-poll (the
        invariant below), a current one is served."""
        member = self.session.members.get(PEERS[peer])
        if (
            member is None
            or member.ejected
            or self.session.state not in (STREAMING, DRAINING)
        ):
            return
        group = self.session.machine._groups[tg]
        nak = Nak(tg, needed, group.round - 1)
        self.session.on_frame(nak, PEERS[peer], self.now)
        if not group.repoll_queued:
            return  # a round of the group is queued, or it was abandoned
        served = not stale and not group.in_flight
        nak = Nak(tg, needed, group.round - stale)
        self.session.on_frame(nak, PEERS[peer], self.now)
        if served:
            assert group.in_flight

    @rule(peer=peers)
    def complete(self, peer):
        self.session.on_frame(SessionComplete(GROUPS), PEERS[peer], self.now)

    @rule(peer=peers, kind=st.sampled_from(("nak", "complete", "trace")))
    def junk(self, peer, kind):
        """A control frame whose checksum fails, or a trace context: both
        cost a counter at most, and send nothing."""
        before = self.session.control_corrupt_discarded
        sent = len(self.sent)
        if kind == "trace":
            packet = TraceContextPacket("f" * 32)
        else:
            packet = Nak(0, 1, 1) if kind == "nak" else SessionComplete(GROUPS)
            packet = replace(packet, checksum=control_checksum_of(packet) ^ 1)
        self.session.on_frame(packet, PEERS[peer], self.now)
        counted = kind != "trace" and PEERS[peer] in self.session.members
        assert self.session.control_corrupt_discarded == before + counted
        assert len(self.sent) == sent

    # -- the driver -------------------------------------------------------
    @rule(
        dt=st.sampled_from((0.0, 0.001, 0.01, 0.06, 0.3, 1.2, 7.0)),
        pops=st.integers(0, 12),
    )
    def drive(self, dt, pops):
        """The clock jumps by ``dt``; the driver wakes and fans out up to
        ``pops`` frames."""
        self.now += dt
        self._wake()
        for _ in range(pops):
            if not self.session.has_frame:
                return
            packet = self.session.pop()
            if packet is not None:
                encode_frame(packet, SESSION_ID)
                self.session.fanout(packet)
            self._wake()

    def _wake(self):
        if (
            self.session.state == GATHERING
            and self.now >= START + self.config.join_window
        ):
            self.session.start()
        self.session.wake(self.now)
        self.woken_at = self.now

    # -- invariants -------------------------------------------------------
    @invariant()
    def members_joined_while_gathering(self):
        assert set(self.session.members) <= self.gathering_joiners

    @invariant()
    def rounds_are_monotone_and_capped(self):
        for tg, group in enumerate(self.session.machine._groups):
            assert self.rounds[tg] <= group.round <= self.config.max_rounds
            self.rounds[tg] = group.round

    @invariant()
    def a_round_queues_at_most_k_repairs_and_one_poll(self):
        machine = self.session.machine
        groups = machine._groups
        queued = list(machine._repairs)
        repairs = Counter(
            p.tg for p in queued if isinstance(p, (DataPacket, ParityPacket))
        )
        polls = Counter(
            p.tg for p in queued
            if isinstance(p, Poll) and p.round > groups[p.tg].round
        )
        for tg, frames in repairs.items():
            assert frames <= K
            assert polls[tg] == 1
        assert all(count == 1 for count in polls.values())
        assert len(machine._windows) <= GROUPS

    @invariant()
    def a_shortfall_is_at_most_k(self):
        # a forged ``needed`` must not size a round
        assert all(group.needed <= K for group in self.session.machine._groups)

    @invariant()
    def a_group_queues_at_most_one_repoll(self):
        groups = self.session.machine._groups
        repolls = Counter(
            p.tg for p in self.session.machine._repairs
            if isinstance(p, Poll) and p.round == groups[p.tg].round
        )
        assert all(count == 1 for count in repolls.values())

    @invariant()
    def done_exactly_with_a_report(self):
        session = self.session
        assert (session.state == DONE) == (session.report is not None)
        if session.report is not None:
            assert session.report.outcome in ("complete", "degraded", "aborted")
        if (
            self.woken_at is not None
            and self.woken_at >= START + self.config.session_deadline
        ):
            assert session.state == DONE


class ZeroWindowMachine(SenderSessionMachine):
    """The simulator's setting: every window closes when it opens."""

    config = replace(CONFIG, nak_aggregation=0.0)


TestSenderSessionMachine = SenderSessionMachine.TestCase
TestSenderSessionMachine.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestZeroWindowMachine = ZeroWindowMachine.TestCase
TestZeroWindowMachine.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
