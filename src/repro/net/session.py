"""Per-session sender state machine for the UDP transport.

One :class:`SenderSession` serves one transfer group (one set of members
who joined under the same group tag); the server multiplexes many of them
by session id.  The machine runs the NP recovery loop from the paper over
unicast fan-out:

``GATHERING -> STREAMING -> DRAINING -> DONE``

* **GATHERING** — the join window is open; joins with the session's group
  tag add members.
* **STREAMING** — every transmission group goes out once: ``k`` data
  packets then ``POLL(tg, k, 1)``, paced by the
  :class:`~repro.net.supervision.Pacer`.
* **DRAINING** — repair rounds.  The first NAK of a round opens a short
  aggregation window; at close, ``max(needed)`` repair packets are sent —
  fresh parities while they last (encoded on a group's first repair
  request, as protocol NP does; a clean transfer encodes none), then ARQ
  fallback (data packets with a bumped ``generation``) — followed by the
  next round's poll.  Stale NAKs
  (an earlier round's number) re-solicit with the current poll instead of
  triggering duplicate repairs.  A group that trips ``max_rounds``
  (0 = unlimited) is abandoned with a
  :class:`~repro.protocols.packets.GroupAbort`.
* **DONE** — every member completed or was ejected; the
  :class:`SessionReport` records which.

Degraded completion: a member silent for ``member_timeout`` with work
outstanding is *ejected* (told via ``SessionFin("ejected")``) so one dead
receiver cannot pin a session open; ``session_deadline`` bounds the whole
session the same way (``SessionFin("aborted")``).

The session is transport-agnostic for testability: it talks through a
``send(packet, addr)`` callable and a ``now()`` clock supplied by the
server.  It is not asyncio-free, though: besides the ``run()`` coroutine,
``_on_nak`` and ``_spawn_flush`` call ``asyncio.get_running_loop()`` (to
arm the aggregation timer and spawn the flush task), ``_flush_repairs``
is a coroutine that awaits the pacer, and the constructor builds an
``asyncio.Event`` — a current-round NAK can only be handled inside a
running loop.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.fec.block import BlockEncoder
from repro.net.supervision import NetConfig, Pacer
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
    SessionJoin,
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
    nonce: int
    joined_at: float
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
        return {
            "session_id": self.session_id,
            "group": self.group,
            "outcome": self.outcome,
            "members": self.members,
            "completed": self.completed,
            "ejected": self.ejected,
            "abandoned_groups": list(self.abandoned_groups),
            "rounds_served": self.rounds_served,
            "parities_sent": self.parities_sent,
            "arq_fallbacks": self.arq_fallbacks,
            "naks_received": self.naks_received,
            "stale_naks": self.stale_naks,
            "repolls": self.repolls,
            "control_corrupt_discarded": self.control_corrupt_discarded,
            "duration": self.duration,
            "revived": self.revived,
        }


@dataclass
class _GroupState:
    """Repair-round bookkeeping for one transmission group."""

    round: int = 1
    sent_last_round: int = 0
    #: max shortfall reported for the current round (aggregation window)
    pending_needed: int = 0
    #: the round's window is open, or its flush has not sent its poll yet
    flush_armed: bool = False
    next_parity: int = 0
    fallback_cursor: int = 0
    generation: int = 0
    last_repoll: float = field(default=-1.0)
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
        now: Callable[[], float],
        trace_id: str | None = None,
    ):
        self.session_id = session_id
        self.group = group
        self.config = config
        self.send = send
        self.now = now
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
        self.pacer = Pacer(config.pace_interval, config.pace_burst)
        self._groups = [_GroupState() for _ in range(len(self.encoder))]
        self._started_at = now()
        self._finished = asyncio.Event()
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
            codec=(
                self.config.codec
                if isinstance(self.config.codec, str)
                else type(self.config.codec).__name__
            ),
        )

    def add_member(self, addr: Address, join: SessionJoin) -> bool:
        """Admit (or re-announce to) a joiner; False once streaming began.

        A duplicate join from a known address is always answered with a
        fresh announce — join replies are datagrams too and can be lost.
        A known member that was *ejected* (silent past ``member_timeout``,
        e.g. its rack was dark) is revived while the session still runs:
        it resumes receiving repairs from wherever its decoder left off.
        Once the session is DONE the join is refused so the server can
        spawn a fresh session for the stray instead.
        """
        timestamp = self.now()
        member = self.members.get(addr)
        if member is not None:
            if member.ejected:
                if self.state == DONE:
                    return False
                member.ejected = False
                self.revived += 1
                self._settled_at = None  # an active member again
                if obs.is_enabled():
                    obs.counter("net.members_revived").inc()
            member.last_heard = timestamp
            self._send_announce(addr)
            return True
        if self.state != GATHERING:
            return False
        self.members[addr] = MemberState(
            addr=addr, nonce=join.nonce, joined_at=timestamp,
            last_heard=timestamp,
        )
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

    def _fanout(self, packet) -> None:
        """Unicast emulation of a multicast send: every active member."""
        for member in self.members.values():
            if member.active:
                self.send(packet, member.addr)

    # ------------------------------------------------------------------
    # inbound frames (called from datagram_received, inside the loop)
    # ------------------------------------------------------------------
    def on_frame(self, packet, addr: Address) -> None:
        member = self.members.get(addr)
        if member is None:
            return  # not a member of this session: ignore
        member.last_heard = self.now()
        if isinstance(packet, Nak):
            if not control_intact(packet):
                self.control_corrupt_discarded += 1
                return
            if member.ejected:
                # a NAK from an ejected member means it never learned its
                # fate (the fins were eaten by the same blackout that got
                # it ejected): re-tell it, rate-limited, so its rejoin
                # logic can fire instead of NAK-ing into the void
                timestamp = self.now()
                if timestamp - member.last_fin >= self.config.nak_aggregation:
                    member.last_fin = timestamp
                    self.send(SessionFin("ejected"), addr)
                return
            self._on_nak(packet)
        elif isinstance(packet, SessionComplete):
            if not control_intact(packet):
                self.control_corrupt_discarded += 1
                return
            member.complete = True
            if member.ejected:
                # ejected for silence while its last repairs were in
                # flight: a completion proves delivery, so it is neither
                # counted as lost nor waited for in the revive window
                member.ejected = False
                self.revived += 1
                if obs.is_enabled():
                    obs.counter("net.members_revived").inc()
            # idempotent ack — repeated completes re-trigger the fin so a
            # lost fin is recovered by the receiver's repeats
            self.send(SessionFin("complete"), addr)
            self._check_finished()
        # joins are handled by the server; payload types never come back

    def _on_nak(self, nak: Nak) -> None:
        if self.state not in (STREAMING, DRAINING):
            return
        if not 0 <= nak.tg < self.n_groups:
            return
        group = self._groups[nak.tg]
        if group.abandoned:
            # the abort datagram can be lost too: re-tell, rate-limited
            timestamp = self.now()
            if timestamp - group.last_repoll >= self.config.nak_aggregation:
                group.last_repoll = timestamp
                self._fanout(GroupAbort(nak.tg, group.round))
            return
        self.naks_received += 1
        if nak.round < group.round:
            # stale: the receiver missed this round's poll — re-solicit
            # with the current round instead of re-repairing
            self.stale_naks += 1
            timestamp = self.now()
            if (
                not group.flush_armed
                and timestamp - group.last_repoll >= self.config.nak_aggregation
            ):
                group.last_repoll = timestamp
                self.repolls += 1
                self._fanout(Poll(nak.tg, group.sent_last_round, group.round))
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
            loop = asyncio.get_running_loop()
            loop.call_later(
                self.config.nak_aggregation, self._spawn_flush, nak.tg
            )

    def _spawn_flush(self, tg: int) -> None:
        if self.state == DONE:
            return
        task = asyncio.get_running_loop().create_task(self._flush_repairs(tg))
        task.add_done_callback(_log_task_error)

    async def _flush_repairs(self, tg: int) -> None:
        """Close the aggregation window: send repairs + the next poll.

        The window stays closed until the poll is out: a same-round NAK
        that arrives while the flush waits on the pacer asks for the
        shortfall this flush is serving, and the poll will re-solicit
        whatever the repairs do not cover.
        """
        group = self._groups[tg]
        try:
            await self._serve_round(tg, group)
        finally:
            group.pending_needed = 0
            group.flush_armed = False

    async def _serve_round(self, tg: int, group: _GroupState) -> None:
        needed = group.pending_needed
        if needed <= 0 or group.abandoned or self.state == DONE:
            return
        config = self.config
        if config.max_rounds and group.round >= config.max_rounds:
            self._abandon_group(tg)  # max_rounds == 0 means unlimited
            return
        self.rounds_served += 1
        sent = 0
        for _ in range(needed):
            await self.pacer.gate()
            if group.next_parity < config.h:
                index = config.k + group.next_parity
                group.next_parity += 1
                self.parities_sent += 1
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
                self.arq_fallbacks += 1
                packet = DataPacket(
                    tg,
                    index,
                    self.encoder.data_packet(tg, index),
                    generation=group.generation,
                )
            self._fanout(packet)
            sent += 1
        group.round += 1
        group.sent_last_round = sent
        await self.pacer.gate()
        self._fanout(Poll(tg, sent, group.round))

    def _abandon_group(self, tg: int) -> None:
        group = self._groups[tg]
        if group.abandoned:
            return
        group.abandoned = True
        self._fanout(GroupAbort(tg, group.round))
        if obs.is_enabled():
            obs.counter("net.groups_abandoned").inc()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def run(self) -> SessionReport:
        """Stream, drain, supervise; returns the final report."""
        attrs: dict = {"side": "sender", "session": self.session_id}
        if self.trace_id is not None:
            attrs["trace"] = self.trace_id
        try:
            with obs.span("net.serve.session", **attrs):
                await self._stream()
                await self._drain()
        finally:
            if self.report is None:
                self._finish("aborted")
        return self.report

    async def _stream(self) -> None:
        self.state = STREAMING
        config = self.config
        for tg in range(self.n_groups):
            if self.state == DONE:
                return
            for index in range(config.k):
                await self.pacer.gate()
                if obs.is_enabled():
                    # loss-free fanout baseline: observed E[M] for the live
                    # transport is (data+parity frames_tx) / this counter
                    obs.counter("net.stream_data_tx").inc(
                        sum(1 for m in self.members.values() if m.active)
                    )
                self._fanout(
                    DataPacket(tg, index, self.encoder.data_packet(tg, index))
                )
            await self.pacer.gate()
            self._fanout(Poll(tg, config.k, 1))
            self._groups[tg].sent_last_round = config.k
        self.state = DRAINING

    async def _drain(self) -> None:
        """Serve repair rounds until every member completes or is ejected."""
        tick = min(0.1, max(0.01, self.config.member_timeout / 8.0))
        while self.state != DONE:
            self._check_finished()
            if self.state == DONE:
                return
            timestamp = self.now()
            if timestamp - self._started_at > self.config.session_deadline:
                for member in self.members.values():
                    if member.active:
                        member.ejected = True
                        self.send(SessionFin("aborted"), member.addr)
                self._finish("aborted")
                return
            for member in self.members.values():
                if (
                    member.active
                    and timestamp - member.last_heard > self.config.member_timeout
                ):
                    member.ejected = True
                    # a few copies: the fin itself crosses the lossy wire
                    for _ in range(self.config.complete_repeats):
                        self.send(SessionFin("ejected"), member.addr)
                    if obs.is_enabled():
                        obs.counter("net.members_ejected").inc()
            self._check_finished()
            if self.state == DONE:
                return
            try:
                await asyncio.wait_for(self._finished.wait(), timeout=tick)
            except asyncio.TimeoutError:
                pass

    def _check_finished(self) -> None:
        if self.state == DONE:
            return
        if self.members and all(
            not member.active for member in self.members.values()
        ):
            ejected = sum(1 for m in self.members.values() if m.ejected)
            if ejected and self.config.revive_window > 0:
                # hold the session open so an eclipsed member can rejoin
                # and resume; the grace runs from the settle instant and
                # is still bounded by session_deadline in _drain
                if self._settled_at is None:
                    self._settled_at = self.now()
                    return
                if self.now() - self._settled_at < self.config.revive_window:
                    return
            abandoned = any(group.abandoned for group in self._groups)
            outcome = "degraded" if (ejected or abandoned) else "complete"
            self._finish(outcome)
        else:
            self._settled_at = None

    def _finish(self, outcome: str) -> None:
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
            duration=self.now() - self._started_at,
            revived=self.revived,
        )
        if obs.is_enabled():
            obs.counter("net.sessions", outcome=outcome).inc()
        self._finished.set()


def _log_task_error(task: asyncio.Task) -> None:
    # repair flushes are fire-and-forget; surface their tracebacks instead
    # of letting asyncio swallow them silently
    if not task.cancelled() and task.exception() is not None:
        task.get_loop().call_exception_handler(
            {"message": "repair flush failed", "exception": task.exception()}
        )
