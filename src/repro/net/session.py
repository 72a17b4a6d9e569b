"""Per-session sender state machine for the UDP transport.

One :class:`SenderSession` serves one transfer group (the members who
joined under the same group tag); the server multiplexes many of them by
session id.  The machine runs the NP recovery loop from the paper over
unicast fan-out:

``GATHERING -> STREAMING -> DRAINING -> DONE``

* **GATHERING** — joins with the session's group tag add members, until
  :meth:`~SenderSession.start` closes the join window.
* **STREAMING** — the stream cursor hands out every transmission group
  once: ``k`` data packets then ``POLL(tg, k, 1)``.
* **DRAINING** — repair rounds.  The first NAK of a round opens a short
  aggregation window; when it closes, ``max(needed)`` repairs — fresh
  parities while they last (encoded on a group's first repair request,
  as protocol NP does), then ARQ fallback (data packets with a bumped
  ``generation``) — and the next round's poll join the repair queue.
  Until that poll has left the queue the group opens no second window.
  Stale NAKs (an earlier round's number) buy a re-poll, not repairs.  A
  group that trips ``max_rounds`` (0 = unlimited) is abandoned with a
  :class:`~repro.protocols.packets.GroupAbort`.
* **DONE** — every member completed or was ejected (silent for
  ``member_timeout`` while the session drains: ``SessionFin("ejected")``),
  or ``session_deadline`` passed (``SessionFin("aborted")``); the
  :class:`SessionReport` records which.

One machine, one send queue, no I/O and no clock of its own, like
``NPSender`` on the simulator: the repair queue is served ahead of the
stream cursor, so repairs jump the rest of the stream.  Inbound handlers
take ``now``; :meth:`~SenderSession.wake` acts on every deadline that
has passed (aggregation windows close in the order they open, then
member timeouts, the session deadline and the revive grace) and
:meth:`~SenderSession.next_wake` says when the next one falls.  The
driver (:class:`~repro.net.endpoints.NetServer`) gates each
:meth:`~SenderSession.pop` on the session's pacer and fans the frame
out; immediate control replies (announce, fin, re-poll, abort) go
straight out through the injected ``send(packet, addr)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable

from repro import obs
from repro.fec.block import BlockEncoder
from repro.net.supervision import NetConfig
from repro.net.wire import TraceContextPacket
from repro.protocols.packets import (
    DataPacket,
    GroupAbort,
    Nak,
    ParityPacket,
    Poll,
    SessionAnnounce,
    SessionComplete,
    SessionFin,
    control_intact,
)

__all__ = ["SenderSession", "SessionReport", "MemberState"]

Address = tuple  # (host, port)

GATHERING = "gathering"
STREAMING = "streaming"
DRAINING = "draining"
DONE = "done"


@dataclass
class MemberState:
    """Sender-side view of one joined receiver."""

    addr: Address
    last_heard: float
    complete: bool = False
    ejected: bool = False
    #: last time we re-told an ejected member its fate (rate limiter)
    last_fin: float = -1.0

    @property
    def active(self) -> bool:
        return not self.complete and not self.ejected


@dataclass(frozen=True)
class SessionReport:
    """Outcome of one finished session (``NetServer.reports``)."""

    session_id: int
    group: int
    #: ``complete`` (all members delivered), ``degraded`` (some ejected or
    #: groups abandoned, rest delivered) or ``aborted`` (deadline tripped)
    outcome: str
    members: int
    completed: int
    ejected: int
    abandoned_groups: tuple[int, ...]
    rounds_served: int
    parities_sent: int
    arq_fallbacks: int
    naks_received: int
    stale_naks: int
    repolls: int
    control_corrupt_discarded: int
    duration: float
    #: ejected members readmitted after a rejoin (churn survivors)
    revived: int = 0

    def to_json(self) -> dict:
        return dict(asdict(self), abandoned_groups=list(self.abandoned_groups))


@dataclass
class _GroupState:
    """Repair-round bookkeeping for one transmission group."""

    round: int = 1
    sent_last_round: int = 0
    #: max shortfall reported for the current round (aggregation window)
    pending_needed: int = 0
    #: the round's window is open, or its poll has not left the queue yet
    flush_armed: bool = False
    next_parity: int = 0
    fallback_cursor: int = 0
    generation: int = 0
    last_repoll: float = -1.0
    abandoned: bool = False


class SenderSession:
    """One transfer session: members, stream, repair rounds, ejection."""

    def __init__(
        self,
        session_id: int,
        group: int,
        data: bytes,
        config: NetConfig,
        send: Callable[[object, Address], None],
        now: float,
        trace_id: str | None = None,
    ):
        self.session_id = session_id
        self.group = group
        self.config = config
        self.send = send
        #: telemetry trace id shared with every member (None = untraced)
        self.trace_id = trace_id
        self.state = GATHERING
        self.encoder = BlockEncoder(
            data,
            k=config.k,
            h=config.h,
            packet_size=config.packet_size,
            codec=config.codec,
        )
        self.members: dict[Address, MemberState] = {}
        self._groups = [_GroupState() for _ in range(len(self.encoder))]
        self._started_at = now
        #: frames of closed aggregation windows, served ahead of the stream
        self._repairs: deque = deque()
        #: ``(close_at, tg)`` of the open windows, in closing order
        self._windows: deque[tuple[float, int]] = deque()
        #: stream frames handed out so far (``k + 1`` per group)
        self._streamed = 0
        self.report: SessionReport | None = None
        # counters surfaced in the report
        self.rounds_served = 0
        self.parities_sent = 0
        self.arq_fallbacks = 0
        self.naks_received = 0
        self.stale_naks = 0
        self.repolls = 0
        self.control_corrupt_discarded = 0
        self.revived = 0
        #: when every member first became settled (complete/ejected) while
        #: ejected-incomplete members remain — starts the revive grace
        self._settled_at: float | None = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self.encoder)

    def announce(self) -> SessionAnnounce:
        return SessionAnnounce(
            k=self.config.k,
            h=self.config.h,
            packet_size=self.config.packet_size,
            n_groups=self.n_groups,
            total_length=self.encoder.total_length,
            codec=self.config.codec,
        )

    def add_member(self, addr: Address, now: float) -> bool:
        """Admit (or re-announce to) a joiner; False once streaming began.

        A duplicate join from a known address is always answered with a
        fresh announce — join replies are datagrams too and can be lost.
        A known member that was *ejected* (silent past ``member_timeout``,
        e.g. its rack was dark) is revived while the session still runs:
        it resumes receiving repairs from wherever its decoder left off.
        Once the session is DONE the join is refused so the server can
        spawn a fresh session for the stray instead.
        """
        member = self.members.get(addr)
        if member is not None:
            if member.ejected:
                if self.state == DONE:
                    return False
                self._revive(member)
                self._settled_at = None  # an active member again
            member.last_heard = now
            self._send_announce(addr)
            return True
        if self.state != GATHERING:
            return False
        self.members[addr] = MemberState(addr=addr, last_heard=now)
        self._send_announce(addr)
        return True

    def _send_announce(self, addr: Address) -> None:
        """Announce the session — and its trace id, when one was minted.

        The trace packet rides behind every announce (join replies are
        datagrams and can be lost, so re-announces re-carry it); peers
        that predate wire type 13 drop it as ``unknown_type``.
        """
        self.send(self.announce(), addr)
        if self.trace_id is not None:
            self.send(TraceContextPacket(self.trace_id), addr)

    def _revive(self, member: MemberState) -> None:
        member.ejected = False
        self.revived += 1
        if obs.is_enabled():
            obs.counter("net.members_revived").inc()

    def fanout(self, packet) -> None:
        """Unicast emulation of a multicast send: every active member."""
        for member in self.members.values():
            if member.active:
                self.send(packet, member.addr)

    # ------------------------------------------------------------------
    # inbound frames
    # ------------------------------------------------------------------
    def on_frame(self, packet, addr: Address, now: float) -> None:
        member = self.members.get(addr)
        if member is None:
            return  # not a member of this session: ignore
        member.last_heard = now
        if isinstance(packet, Nak):
            if not control_intact(packet):
                self.control_corrupt_discarded += 1
                return
            if member.ejected:
                # a NAK from an ejected member means it never learned its
                # fate (the fins were eaten by the same blackout that got
                # it ejected): re-tell it, rate-limited, so its rejoin
                # logic can fire instead of NAK-ing into the void
                if now - member.last_fin >= self.config.nak_aggregation:
                    member.last_fin = now
                    self.send(SessionFin("ejected"), addr)
                return
            self._on_nak(packet, now)
        elif isinstance(packet, SessionComplete):
            if not control_intact(packet):
                self.control_corrupt_discarded += 1
                return
            member.complete = True
            if member.ejected:
                # ejected for silence while its last repairs were in
                # flight: a completion proves delivery, so it is neither
                # counted as lost nor waited for in the revive window
                self._revive(member)
            # idempotent ack — repeated completes re-trigger the fin so a
            # lost fin is recovered by the receiver's repeats
            self.send(SessionFin("complete"), addr)
            self._check_finished(now)
        # joins are handled by the server; payload types never come back

    def _on_nak(self, nak: Nak, now: float) -> None:
        if self.state not in (STREAMING, DRAINING):
            return
        if not 0 <= nak.tg < self.n_groups:
            return
        group = self._groups[nak.tg]
        if group.abandoned:
            # the abort datagram can be lost too: re-tell, rate-limited
            if now - group.last_repoll >= self.config.nak_aggregation:
                group.last_repoll = now
                self.fanout(GroupAbort(nak.tg, group.round))
            return
        self.naks_received += 1
        if nak.round < group.round:
            # stale: the receiver missed this round's poll — re-solicit
            # with the current round instead of re-repairing
            self.stale_naks += 1
            if (
                not group.flush_armed
                and now - group.last_repoll >= self.config.nak_aggregation
            ):
                group.last_repoll = now
                self.repolls += 1
                self.fanout(Poll(nak.tg, group.sent_last_round, group.round))
            return
        # current (or ahead-of-us, clamped) round: aggregate the shortfall.
        # ``needed`` is a peer-supplied u32; a receiver is never short more
        # than k, so a forged value must not size the repair fan-out.
        if nak.needed < 1:
            return
        group.pending_needed = max(
            group.pending_needed, min(nak.needed, self.config.k)
        )
        if not group.flush_armed:
            group.flush_armed = True
            self._windows.append((now + self.config.nak_aggregation, nak.tg))

    # ------------------------------------------------------------------
    # the send queue
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Close the gathering window: the stream begins."""
        if self.state == GATHERING:
            self.state = STREAMING

    @property
    def has_frame(self) -> bool:
        """Whether :meth:`pop` has a frame to hand out."""
        return self.state == STREAMING or (
            self.state == DRAINING and bool(self._repairs)
        )

    def pop(self):
        """The next frame to fan out — repairs first — or ``None``."""
        if self.state == DONE:
            return None
        if self._repairs:
            packet = self._repairs.popleft()
            kind = type(packet)
            if kind is ParityPacket:
                self.parities_sent += 1
            elif kind is DataPacket:
                self.arq_fallbacks += 1
            else:  # the round's closing poll: the next round begins
                group = self._groups[packet.tg]
                group.round = packet.round
                group.sent_last_round = packet.sent
                group.pending_needed = 0
                group.flush_armed = False
            return packet
        if self.state != STREAMING:
            return None
        k = self.config.k
        tg, index = divmod(self._streamed, k + 1)
        self._streamed += 1
        if index < k:
            if obs.is_enabled():
                # loss-free fanout baseline: observed E[M] for the live
                # transport is (data+parity frames_tx) / this counter
                obs.counter("net.stream_data_tx").inc(
                    sum(1 for m in self.members.values() if m.active)
                )
            return DataPacket(tg, index, self.encoder.data_packet(tg, index))
        self._groups[tg].sent_last_round = k
        if tg == self.n_groups - 1:
            self.state = DRAINING
        return Poll(tg, k, 1)

    def _close_window(self, tg: int) -> None:
        """Queue the round's ``max(needed)`` repairs and its closing poll.

        The round stays open until the poll leaves the queue: a NAK of
        it that arrives meanwhile asks for the shortfall these repairs
        serve, so it opens no second window, and the poll re-solicits
        whatever the repairs do not cover.
        """
        group = self._groups[tg]
        config = self.config
        if config.max_rounds and group.round >= config.max_rounds:
            # abandoned like the simulator's eject policy (0 = unlimited)
            group.abandoned = True
            self.fanout(GroupAbort(tg, group.round))
            if obs.is_enabled():
                obs.counter("net.groups_abandoned").inc()
            return
        self.rounds_served += 1
        needed = group.pending_needed
        for _ in range(needed):
            if group.next_parity < config.h:
                index = config.k + group.next_parity
                group.next_parity += 1
                packet = ParityPacket(
                    tg, index, self.encoder.parity_packet(tg, index - config.k)
                )
            else:
                # parity budget dry: ARQ fallback — cycle the originals
                # with a bumped generation so receivers see fresh copies
                index = group.fallback_cursor % config.k
                group.fallback_cursor += 1
                if index == 0:
                    group.generation += 1
                packet = DataPacket(
                    tg,
                    index,
                    self.encoder.data_packet(tg, index),
                    generation=group.generation,
                )
            self._repairs.append(packet)
        self._repairs.append(Poll(tg, needed, group.round + 1))

    # ------------------------------------------------------------------
    # deadlines
    # ------------------------------------------------------------------
    def wake(self, now: float) -> None:
        """Act on every deadline that has passed by ``now``."""
        if self.state == DONE:
            return
        windows = self._windows
        while windows and windows[0][0] <= now:
            self._close_window(windows.popleft()[1])
        config = self.config
        if now >= self._started_at + config.session_deadline:
            for member in self.members.values():
                if member.active:
                    member.ejected = True
                    self.send(SessionFin("aborted"), member.addr)
            self._finish("aborted", now)
            return
        if self.state != DRAINING:
            return  # no member is ejected, nor settled, before the drain
        for member in self.members.values():
            if member.active and now >= member.last_heard + config.member_timeout:
                member.ejected = True
                # a few copies: the fin itself crosses the lossy wire
                for _ in range(config.complete_repeats):
                    self.send(SessionFin("ejected"), member.addr)
                if obs.is_enabled():
                    obs.counter("net.members_ejected").inc()
        self._check_finished(now)

    def next_wake(self) -> float | None:
        """When :meth:`wake` next has work; ``None`` once DONE."""
        if self.state == DONE:
            return None
        config = self.config
        wake = self._started_at + config.session_deadline
        if self._windows:
            wake = min(wake, self._windows[0][0])
        if self.state == DRAINING:
            for member in self.members.values():
                if member.active:
                    wake = min(wake, member.last_heard + config.member_timeout)
        if self._settled_at is not None:
            wake = min(wake, self._settled_at + config.revive_window)
        return wake

    def _check_finished(self, now: float) -> None:
        if self.state == DONE:
            return
        if self.members and all(
            not member.active for member in self.members.values()
        ):
            ejected = sum(1 for m in self.members.values() if m.ejected)
            if ejected and self.config.revive_window > 0:
                # hold the session open so an eclipsed member can rejoin
                # and resume; the grace runs from the settle instant and
                # is still bounded by session_deadline
                if self._settled_at is None:
                    self._settled_at = now
                    return
                if now - self._settled_at < self.config.revive_window:
                    return
            abandoned = any(group.abandoned for group in self._groups)
            outcome = "degraded" if (ejected or abandoned) else "complete"
            self._finish(outcome, now)
        else:
            self._settled_at = None

    def _finish(self, outcome: str, now: float) -> None:
        self.state = DONE
        self.report = SessionReport(
            session_id=self.session_id,
            group=self.group,
            outcome=outcome,
            members=len(self.members),
            completed=sum(1 for m in self.members.values() if m.complete),
            ejected=sum(1 for m in self.members.values() if m.ejected),
            abandoned_groups=tuple(
                tg for tg, group in enumerate(self._groups) if group.abandoned
            ),
            rounds_served=self.rounds_served,
            parities_sent=self.parities_sent,
            arq_fallbacks=self.arq_fallbacks,
            naks_received=self.naks_received,
            stale_naks=self.stale_naks,
            repolls=self.repolls,
            control_corrupt_discarded=self.control_corrupt_discarded,
            duration=now - self._started_at,
            revived=self.revived,
        )
        if obs.is_enabled():
            obs.counter("net.sessions", outcome=outcome).inc()
