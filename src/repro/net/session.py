"""Per-session sender for the UDP transport.

One :class:`SenderSession` serves one transfer group (the members who
joined under the same group tag); the server multiplexes many of them by
session id.  The NP repair rounds — the stream, the aggregation windows,
the repair queue, parities then ARQ copies, re-polls and group aborts —
are :class:`~repro.protocols.np_machine.NPRepairMachine`'s, the machine
the simulator's ``NPSender`` runs too; the session drives it with a
window of ``nak_aggregation`` over unicast fan-out and keeps what only a
socket sender has: membership, deadlines, fins and the report.

``GATHERING -> STREAMING -> DRAINING -> DONE``

* **GATHERING** — joins with the session's group tag add members, until
  :meth:`~SenderSession.start` closes the join window.
* **STREAMING** — the machine's stream cursor hands out every
  transmission group once: ``k`` data packets then ``POLL(tg, k, 1)``.
* **DRAINING** — repair rounds only.
* **DONE** — every member completed or was ejected (silent for
  ``member_timeout`` while the session drains: ``SessionFin("ejected")``),
  or ``session_deadline`` passed (``SessionFin("aborted")``); the
  :class:`SessionReport` records which.

No I/O and no clock of its own: inbound handlers take ``now``;
:meth:`~SenderSession.wake` acts on every deadline that has passed (the
machine's windows close in the order they open, then member timeouts,
the session deadline and the revive grace) and
:meth:`~SenderSession.next_wake` says when the next one falls.  The
driver (:class:`~repro.net.endpoints.NetServer`) gates each
:meth:`~SenderSession.pop` on the session's pacer and fans the frame
out; immediate control replies (announce, fin, group abort) go straight
out through the injected ``send(packet, *addrs)``, which sends one
packet to each address it is given.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

from repro import obs
from repro.fec.block import BlockEncoder
from repro.net.supervision import NetConfig
from repro.net.wire import TraceContextPacket
from repro.protocols.np_machine import NPRepairMachine
from repro.protocols.packets import (
    DataPacket,
    Nak,
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


def _counter(name: str) -> property:
    return property(lambda self: getattr(self.machine, name))


class SenderSession:
    """One transfer session: members, deadlines and fins around the machine."""

    # the machine's counters, surfaced in the report
    rounds_served = _counter("rounds_served")
    parities_sent = _counter("parities_sent")
    arq_fallbacks = _counter("arq_fallbacks")
    naks_received = _counter("naks_received")
    stale_naks = _counter("stale_naks")
    repolls = _counter("repolls")

    def __init__(
        self,
        session_id: int,
        group: int,
        data: bytes,
        config: NetConfig,
        send: Callable[..., None],
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
        )
        self.machine = NPRepairMachine(
            self.encoder, config.max_rounds, config.nak_aggregation, self.fanout
        )
        self.members: dict[Address, MemberState] = {}
        self._started_at = now
        self.report: SessionReport | None = None
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
        self.send(
            packet, *[m.addr for m in self.members.values() if m.active]
        )

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
            if self.state in (STREAMING, DRAINING):
                self.machine.on_nak(packet.tg, packet.needed, packet.round, now)
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
            self.state == DRAINING and self.machine.has_repair
        )

    def pop(self):
        """The machine's next frame — repairs first — or ``None``."""
        if not self.has_frame:
            return None
        packet = self.machine.pop()
        if self.state == STREAMING and self.machine.streamed:
            self.state = DRAINING
        if (
            type(packet) is DataPacket
            and packet.generation == 0
            and obs.is_enabled()
        ):
            # loss-free fanout baseline: observed E[M] for the live
            # transport is (data+parity frames_tx) / this counter
            obs.counter("net.stream_data_tx").inc(
                sum(1 for m in self.members.values() if m.active)
            )
        return packet

    # ------------------------------------------------------------------
    # deadlines
    # ------------------------------------------------------------------
    def wake(self, now: float) -> None:
        """Act on every deadline that has passed by ``now``."""
        if self.state == DONE:
            return
        self.machine.wake(now)
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
        window = self.machine.next_wake()
        if window is not None:
            wake = min(wake, window)
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
            abandoned = self.machine.abandoned_groups
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
            abandoned_groups=self.machine.abandoned_groups,
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
