"""The UDP endpoints: the serving and fetching sides.

:class:`NetServer` binds a UDP socket, admits joins, and multiplexes
every live :class:`~repro.net.session.SenderSession` by session id —
one server serves many concurrent transfer groups.  :func:`fetch` is the
receiving side: join handshake with seeded retry/backoff, the NP recovery
loop (NAK on poll -- heard, or implied by the stream moving past the
group -- one early re-NAK on the measured response time, then watchdog
re-NAKs under a bounded budget), reassembly, and completion handshake.

Failure taxonomy is shared with the simulator
(:mod:`repro.resilience.errors`): a transfer that crosses its deadline
raises :class:`TransferTimeout`; one whose solicitation budget runs dry,
or that the sender ejects, raises :class:`TransferStalled` — both carry a
:class:`~repro.resilience.report.StallReport` snapshot, so a failed fetch
is triageable from the exception alone.

Frames that fail to decode — truncated, corrupted, wrong version — are
counted (``net.frame_errors{reason}``) and dropped on both sides: the
chaos proxy can mangle anything it likes and the endpoints shrug.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass

import numpy as np

from repro import obs
from repro.fec.block import BlockDecoder, join_stream
from repro.fec.registry import create_codec
from repro.net.session import DONE, SenderSession, SessionReport
from repro.net.supervision import NakScheduler, NetConfig, Pacer
from repro.net.udp import DatagramSocket, open_datagram
from repro.net.wire import (
    FrameError,
    TraceContextPacket,
    decode_frame,
    encode_frame,
    frame_kind,
)
from repro.obs.httpd import MetricsEndpoint
from repro.obs.tracecontext import is_trace_id, mint_trace_id
from repro.protocols.packets import (
    DataPacket,
    GroupAbort,
    Nak,
    ParityPacket,
    Poll,
    Retransmission,
    SessionAnnounce,
    SessionComplete,
    SessionFin,
    SessionJoin,
    control_intact,
    payload_symbols,
)
from repro.resilience.errors import TransferStalled, TransferTimeout
from repro.resilience.report import ReceiverStall, StallReport

__all__ = ["NetServer", "FetchResult", "fetch"]

Address = tuple

#: cap on NAKs of one kind released per recovery scan (batch pacing)
_NAK_BATCH = 32
#: shortest sleep between recovery scans
_MIN_SCAN = 0.001
#: longest wait between ``SessionComplete`` repeats, and the wait until a
#: response time has been measured
_COMPLETE_WAIT = 0.1


def _count_tx(packet) -> None:
    if obs.is_enabled():
        obs.counter("net.frames_tx", kind=frame_kind(packet)).inc()


def _count_rx(packet) -> None:
    if obs.is_enabled():
        obs.counter("net.frames_rx", kind=frame_kind(packet)).inc()


def _count_frame_error(reason: str) -> None:
    if obs.is_enabled():
        obs.counter("net.frame_errors", reason=reason).inc()


class _Alarm:
    """A driver's one wake-up: sleep until a deadline, or until the
    inbound path finds ``ready()`` true (:meth:`check`)."""

    _future: asyncio.Future | None = None

    async def sleep(self, until: float, ready) -> None:
        if ready():
            return
        loop = asyncio.get_running_loop()
        self._future, self._ready = loop.create_future(), ready
        timer = loop.call_at(until, self._ring)
        try:
            await self._future
        finally:
            timer.cancel()
            self._future = None

    def check(self) -> None:
        if self._future is not None and self._ready():
            self._ring()

    def _ring(self) -> None:
        if self._future is not None and not self._future.done():
            self._future.set_result(None)


# ----------------------------------------------------------------------
# serving side
# ----------------------------------------------------------------------
class NetServer:
    """One UDP socket serving many concurrent transfer sessions.

    Usage::

        server = NetServer(data, config)
        host, port = await server.start()
        ...                       # receivers fetch from (host, port)
        await server.close()      # reports in server.reports
    """

    def __init__(
        self,
        data: bytes,
        config: NetConfig = NetConfig(),
        bind: Address = ("127.0.0.1", 0),
        metrics_port: int | None = None,
    ):
        self.data = data
        self.config = config
        self.bind = bind
        self.sessions: dict[int, SenderSession] = {}
        #: session id -> its driver's wake-up
        self._alarms: dict[int, _Alarm] = {}
        self.reports: list[SessionReport] = []
        self.frame_errors = 0
        self._next_session_id = 1
        self._socket: DatagramSocket | None = None
        self._tasks: set[asyncio.Task] = set()
        self._closed = asyncio.Event()
        #: optional HTTP pull endpoint for scrapers (None = disabled;
        #: 0 = bind an ephemeral port, reported by ``metrics_address``)
        self._metrics_port = metrics_port
        self._metrics: MetricsEndpoint | None = None

    @property
    def metrics_address(self) -> Address | None:
        """Bound address of the metrics endpoint, if one is serving."""
        if self._metrics is None:
            return None
        return self._metrics.address

    @property
    def address(self) -> Address:
        if self._socket is None:
            raise RuntimeError("server not started")
        return self._socket.sockname[:2]

    async def start(self) -> Address:
        self._socket = await open_datagram(self._datagram, local=self.bind)
        if self._metrics_port is not None:
            self._metrics = MetricsEndpoint(port=self._metrics_port)
            await self._metrics.start()
        return self.address

    async def close(self) -> None:
        self._closed.set()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._metrics is not None:
            await self._metrics.stop()
            self._metrics = None
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    async def serve(self, duration: float | None = None) -> None:
        """Block until :meth:`close` (or for ``duration`` seconds)."""
        try:
            await asyncio.wait_for(self._closed.wait(), timeout=duration)
        except asyncio.TimeoutError:
            pass

    # -- inbound ----------------------------------------------------------
    def _send(self, packet, addr: Address, session_id: int) -> None:
        if self._socket is None:
            return
        _count_tx(packet)
        self._socket.sendto(encode_frame(packet, session_id), addr)

    def _datagram(self, data: bytes, addr: Address) -> None:
        try:
            frame = decode_frame(data)
        except FrameError as error:
            self.frame_errors += 1
            _count_frame_error(error.reason)
            return
        _count_rx(frame.packet)
        now = asyncio.get_running_loop().time()
        if isinstance(frame.packet, SessionJoin):
            session = self._on_join(frame.packet, addr, now)
        else:
            session = self.sessions.get(frame.session_id)
            if session is not None:
                session.on_frame(frame.packet, addr, now)
        if session is not None:
            # a window opened, a deadline moved in, or the session ended
            self._alarms[session.session_id].check()

    def _on_join(
        self, join: SessionJoin, addr: Address, now: float
    ) -> SenderSession | None:
        """Admit a joiner; returns the session that took it."""
        if not control_intact(join):
            return None
        # a rejoin from a member of a live session is a lost-announce
        # retry (or a churn revival), not a new session; only a refused
        # add (session already DONE, or past its join window) falls
        # through to a fresh session
        for session in self.sessions.values():
            if session.group == join.group and session.add_member(addr, now):
                return session
        return self._spawn_session(join, addr, now)

    def _spawn_session(
        self, join: SessionJoin, addr: Address, now: float
    ) -> SenderSession:
        session_id = self._next_session_id
        self._next_session_id += 1
        session = SenderSession(
            session_id=session_id,
            group=join.group,
            data=self.data,
            config=self.config,
            send=lambda packet, to, sid=session_id: self._send(
                packet, to, sid
            ),
            now=now,
            # deterministic: the same (seed, session id, group) always
            # stitches under the same trace
            trace_id=mint_trace_id(
                "net", self.config.seed, session_id, join.group
            ),
        )
        self.sessions[session_id] = session
        self._alarms[session_id] = _Alarm()
        session.add_member(addr, now)
        task = asyncio.get_running_loop().create_task(self._drive(session))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return session

    async def _drive(self, session: SenderSession) -> None:
        """A session's one driver: wait out the join window, then fan out
        every frame the session hands out, each behind the pacer's gate,
        and whenever it has none sleep until its next deadline, or until
        an inbound frame queues one or moves that deadline in."""
        loop = asyncio.get_running_loop()
        alarm = self._alarms[session.session_id]
        pacer = Pacer(self.config.pace_interval, self.config.pace_burst)
        try:
            await asyncio.sleep(self.config.join_window)
            session.start()
            with obs.span(
                "net.serve.session", side="sender",
                session=session.session_id, trace=session.trace_id,
            ):
                while True:
                    session.wake(loop.time())
                    if session.state == DONE:
                        break
                    if session.has_frame:
                        await pacer.gate()
                        packet = session.pop()
                        if packet is not None:
                            session.fanout(packet)
                        continue
                    until = session.next_wake()
                    await alarm.sleep(
                        until,
                        lambda: session.has_frame
                        or (wake := session.next_wake()) is None
                        or wake < until,
                    )
            self.reports.append(session.report)
        finally:
            self.sessions.pop(session.session_id, None)
            self._alarms.pop(session.session_id, None)


# ----------------------------------------------------------------------
# fetching side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FetchResult:
    """A completed fetch: the bytes plus how hard the transfer fought."""

    data: bytes
    n_groups: int
    delivered_groups: int
    #: groups the sender abandoned under its round cap (data is zero-filled
    #: over their extent); empty for a fully successful transfer
    failed_groups: tuple[int, ...]
    naks_sent: int
    #: re-NAKs billed to the ``nak_retry`` budget (neither kind below is)
    watchdog_retries: int
    watchdog_exhaustions: int
    frames_received: int
    frame_errors: int
    duration: float
    #: times this receiver rejoined the session after being ejected
    #: (blackout churn survived); 0 unless ``config.rejoin_attempts`` > 0
    rejoins: int = 0
    #: telemetry trace id announced by the sender session (None when the
    #: sender predates trace-context packets, or the packet was lost)
    trace_id: str | None = None
    #: NAKs sent for a poll that was not heard but that the stream's
    #: position (or, for the last group, its silence) showed had been sent
    implicit_polls: int = 0
    #: NAKs repeated once because the measured response time passed
    early_renaks: int = 0

    @property
    def complete(self) -> bool:
        return not self.failed_groups

    def to_json(self) -> dict:
        report = asdict(self)
        report.update(
            bytes=len(report.pop("data")),
            failed_groups=list(self.failed_groups),
            complete=self.complete,
        )
        return report


class _ReceiverProtocol:
    """Receiver state machine: join -> recover -> reassemble -> complete.

    It reads no clock and awaits nothing: every handler takes ``now``,
    frames go out through the ``transport`` it is given, and it reports
    through plain attributes (``announce`` once joined, ``done`` once
    every group is settled or a fin arrived, with ``fin_reason``).
    :func:`fetch` connects a :class:`~repro.net.udp.DatagramSocket` to
    the server, sets it as ``transport``, feeds :meth:`datagram_received`
    the loop's clock and owns the one wake-up.
    """

    def __init__(self, config: NetConfig, group: int):
        self.config = config
        self.group = group
        self.rng = np.random.default_rng(config.seed)
        self.nonce = int(self.rng.integers(0, 2**63))
        self.scheduler = NakScheduler(config.nak_retry, self.rng)
        self.transport: DatagramSocket | None = None
        self.session_id: int | None = None
        self.announce: SessionAnnounce | None = None
        self.done = False
        self.codec = None
        self.decoders: dict[int, BlockDecoder] = {}
        self.delivered: set[int] = set()
        self.abandoned: set[int] = set()
        self.last_poll_round: dict[int, int] = {}
        self.max_tg_seen = -1
        self.last_stream_rx = 0.0
        self.fin_reason: str | None = None
        self.trace_id: str | None = None
        self.naks_sent = 0
        self.implicit_polls = 0
        self.early_renaks = 0
        self.frames_received = 0
        self.frame_errors = 0
        self.control_corrupt_discarded = 0
        self.rejoins = 0

    # -- plumbing ---------------------------------------------------------
    def send(self, packet) -> None:
        if self.transport is None:
            return
        _count_tx(packet)
        self.transport.sendto(encode_frame(packet, self.session_id or 0))

    def _discard(self, reason: str) -> None:
        """Drop a frame that decoded but cannot be used."""
        self.frame_errors += 1
        _count_frame_error(reason)

    # -- inbound ----------------------------------------------------------
    def datagram_received(self, data: bytes, addr: Address, now: float) -> None:
        try:
            frame = decode_frame(data)
        except FrameError as error:
            self._discard(error.reason)
            return
        self.frames_received += 1
        _count_rx(frame.packet)
        packet = frame.packet
        if isinstance(packet, SessionAnnounce):
            self._on_announce(packet, frame.session_id)
        elif self.session_id is None or frame.session_id != self.session_id:
            return
        elif isinstance(packet, (DataPacket, ParityPacket, Retransmission)):
            self._on_payload(packet, now)
        elif not control_intact(packet):
            self.control_corrupt_discarded += 1
        elif isinstance(packet, Poll):
            self._on_poll(packet, now)
        elif isinstance(packet, GroupAbort):
            self._on_abort(packet)
        elif isinstance(packet, SessionFin):
            self.fin_reason = packet.reason
            self.done = True
        elif isinstance(packet, TraceContextPacket):
            if self.trace_id is None and is_trace_id(packet.trace_id):
                self.trace_id = packet.trace_id

    def _on_announce(self, announce: SessionAnnounce, session_id: int) -> None:
        if not control_intact(announce):
            self.control_corrupt_discarded += 1
            return
        if self.announce is not None:
            return  # duplicate announce (join retry crossed the reply)
        try:
            codec = create_codec(announce.codec, announce.k, announce.h)
        except (KeyError, ValueError):
            # an unknown codec or impossible geometry: without a codec no
            # payload can be decoded, so wait for a usable announce
            self._discard("bad_announce")
            return
        self.announce = announce
        self.session_id = session_id
        self.codec = codec

    def _on_payload(self, packet, now: float) -> None:
        tg = packet.tg
        announce = self.announce
        if not 0 <= tg < announce.n_groups:
            return
        # the wire decoder cannot know the session's geometry: a frame
        # outside it would poison the group's decoder
        if packet.index >= announce.k + announce.h:
            self._discard("bad_index")
            return
        if len(packet.payload) != announce.packet_size:
            self._discard("bad_length")
            return
        self.last_stream_rx = now
        if tg > self.max_tg_seen:
            self._advance(tg, now)
        if tg in self.delivered or tg in self.abandoned:
            return
        self.scheduler.heard(tg, now)
        # Hand the payload to the decoder as a zero-copy symbol view when
        # the field is byte-aligned; the codec's ndarray path skips both
        # the bytes round-trip and (for full-range fields) the value scan.
        payload = packet.payload
        if self.codec.field.m in (8, 16):
            payload = payload_symbols(packet, self.codec.field)
        decoder = self.decoders.get(tg)
        if decoder is None:
            decoder = self.decoders[tg] = BlockDecoder(announce.k, self.codec)
        if decoder.add(packet.index, payload):
            self.delivered.add(tg)
            self.scheduler.forget(tg)
            self._check_done()

    def _advance(self, tg: int, now: float) -> None:
        """The stream has reached ``tg``: answer the polls it implies.

        The sender polls a group before it sends anything of the next, so
        a frame of ``tg`` proves every earlier group's ``Poll(g, k, 1)``
        went out.  A group still short of packets whose poll was not
        heard is answered as if it had been, at this instant -- in-order
        delivery makes ``missing`` exactly what the poll would have found.
        """
        for behind in range(max(self.max_tg_seen, 0), tg):
            if (
                behind not in self.last_poll_round
                and behind not in self.delivered
                and behind not in self.abandoned
            ):
                self._answer_poll(behind, 1, now, implied=True)
        self.max_tg_seen = tg
        if tg not in self.delivered and tg not in self.abandoned:
            self.scheduler.arm(
                tg, now, final=tg == self.announce.n_groups - 1
            )

    def _nak(
        self, tg: int, round_index: int, event: str | None = None
    ) -> None:
        """Send ``NAK(tg, missing, round)``; ``event`` names the counter
        of a NAK that no heard poll asked for."""
        self.naks_sent += 1
        if event is not None and obs.is_enabled():
            obs.counter(event).inc()
        self.send(Nak(tg, self._missing(tg), round_index))

    def _answer_poll(
        self, tg: int, round_index: int, now: float, implied: bool = False
    ) -> None:
        """NAK a poll that was heard, or one the stream ``implied``.

        Either way the NAK is free (not billed to the watchdog budget)
        and the deadline restarts behind it.
        """
        event = None
        if implied:
            self.implicit_polls += 1
            self.last_poll_round[tg] = round_index
            event = "net.implicit_polls"
        self._nak(tg, round_index, event)
        self.scheduler.nak_sent(tg, now)

    def _on_poll(self, poll: Poll, now: float) -> None:
        tg = poll.tg
        if not 0 <= tg < self.announce.n_groups:
            return
        self.last_stream_rx = now
        if tg > self.max_tg_seen:
            self._advance(tg, now)
        self.last_poll_round[tg] = poll.round
        if tg in self.delivered or tg in self.abandoned:
            return
        self.scheduler.heard(tg, now)
        self._answer_poll(tg, poll.round, now)

    def _on_abort(self, abort: GroupAbort) -> None:
        tg = abort.tg
        if not 0 <= tg < self.announce.n_groups:
            return
        if tg in self.delivered:
            return
        self.abandoned.add(tg)
        self.scheduler.forget(tg)
        self._check_done()

    # -- recovery loop ----------------------------------------------------
    def _missing(self, tg: int) -> int:
        decoder = self.decoders.get(tg)
        if decoder is None:
            return self.announce.k
        return decoder.missing

    def _candidates(self, now: float) -> list[int]:
        """Groups worth soliciting right now.

        Groups the stream has visibly reached are armed in the scheduler
        until delivered or abandoned, so its list is the answer -- no
        scan over all groups.  The rest join only once the stream has
        gone silent: NAKing group 90 while the sender is still streaming
        group 10 would just burn budget.
        """
        if self.announce is None:
            return []
        if now - self.last_stream_rx > self.config.nak_retry.base_delay:
            return [
                tg
                for tg in range(self.announce.n_groups)
                if tg not in self.delivered and tg not in self.abandoned
            ]
        return self.scheduler.waiting()

    def solicit(self, now: float) -> list[int]:
        """One recovery scan: fire the NAKs that are due; returns the
        groups whose billed (watchdog) re-NAK went out."""
        for tg in self.scheduler.early(now, _NAK_BATCH):
            if tg in self.last_poll_round:
                self.early_renaks += 1
                self._nak(tg, self.last_poll_round[tg], "net.early_renaks")
            else:
                # the stream's last group: nothing follows it to imply
                # its poll, so its silence does
                self._answer_poll(tg, 1, now, implied=True)
        due = self.scheduler.due(self._candidates(now), now, _NAK_BATCH)
        for tg in due:
            self._nak(tg, self.last_poll_round.get(tg, 1), "net.nak_retries")
        return due

    def scan_delay(self, now: float) -> float:
        """Seconds until the next scan: the earliest pending deadline,
        no later than one tick -- or one response time, the soonest a
        deadline armed while asleep can fall -- from now."""
        ceiling = self.scheduler.tick
        rto = self.scheduler.rto
        if rto is not None:
            ceiling = min(ceiling, rto)
        wake = self.scheduler.next_wake()
        if wake is None:
            return ceiling
        return min(ceiling, max(_MIN_SCAN, wake - now))

    def budget_exhausted(self, now: float) -> bool:
        candidates = self._candidates(now)
        return bool(candidates) and self.scheduler.all_exhausted(candidates)

    def rejoin(self, now: float) -> None:
        """Re-enter the session after an ejection (churn recovery).

        The decoders keep everything received before the blackout, so
        recovery resumes from the retained :class:`BlockDecoder` state —
        only the still-missing groups are re-solicited, never the whole
        transfer.  The NAK budget of those groups is reset: the ejection
        was the *network's* fault, not evidence the sender is gone.
        """
        self.rejoins += 1
        if obs.is_enabled():
            obs.counter("net.rejoins").inc()
        self.done = False
        self.fin_reason = None
        for tg in self.missing_groups():
            if tg not in self.abandoned:
                self.scheduler.state(tg)  # ensure tracked, then reset
                self.scheduler.heard(tg, now)
        self.send(SessionJoin(group=self.group, nonce=self.nonce))

    def _check_done(self) -> None:
        if len(self.delivered) + len(self.abandoned) >= self.announce.n_groups:
            self.done = True

    # -- reassembly -------------------------------------------------------
    def assemble(self) -> bytes:
        announce = self.announce
        groups: list[list[bytes]] = []
        blank = [b"\x00" * announce.packet_size] * announce.k
        for tg in range(announce.n_groups):
            if tg in self.delivered:
                groups.append(self.decoders[tg].reconstruct())
            else:
                groups.append(blank)
        return join_stream(groups, announce.total_length)

    def missing_groups(self) -> tuple[int, ...]:
        if self.announce is None:
            return ()
        return tuple(
            tg
            for tg in range(self.announce.n_groups)
            if tg not in self.delivered
        )


async def fetch(
    host: str,
    port: int,
    config: NetConfig = NetConfig(),
    group: int = 0,
    deadline: float = 30.0,
) -> FetchResult:
    """Fetch one transfer from a :class:`NetServer` at ``(host, port)``.

    Raises :class:`TransferTimeout` when ``deadline`` elapses and
    :class:`TransferStalled` when the join or NAK solicitation budget runs
    dry or the sender ejects this receiver — both with a
    :class:`StallReport` attached.  This coroutine is the receiver's one
    driver: the socket callback feeds the machine and checks the alarm
    the phases below sleep on.
    """
    loop = asyncio.get_running_loop()
    protocol = _ReceiverProtocol(config, group)
    alarm = _Alarm()

    def received(data: bytes, addr: Address) -> None:
        protocol.datagram_received(data, addr, loop.time())
        alarm.check()

    transport = protocol.transport = await open_datagram(
        received, remote=(host, port)
    )
    start = protocol.last_stream_rx = loop.time()
    try:
        with obs.span("net.fetch", side="receiver", group=group) as sp:
            await _join(protocol, alarm, start, deadline)
            await _recover(protocol, alarm, start, deadline)
            # the trace id arrives mid-span (behind the announce), so it
            # is attached to the already-open span rather than passed in
            if protocol.trace_id is not None and hasattr(sp, "attrs"):
                sp.attrs.setdefault("trace", protocol.trace_id)
            data = protocol.assemble()
            await _complete(protocol, alarm)
    finally:
        transport.close()
    duration = loop.time() - start
    if obs.is_enabled() and duration > 0:
        obs.gauge("net.goodput_bytes_per_s").observe(len(data) / duration)
    return FetchResult(
        data=data,
        n_groups=protocol.announce.n_groups,
        delivered_groups=len(protocol.delivered),
        failed_groups=tuple(sorted(protocol.abandoned)),
        naks_sent=protocol.naks_sent,
        watchdog_retries=protocol.scheduler.retries_granted,
        watchdog_exhaustions=protocol.scheduler.exhaustions,
        frames_received=protocol.frames_received,
        frame_errors=protocol.frame_errors,
        duration=duration,
        rejoins=protocol.rejoins,
        trace_id=protocol.trace_id,
        implicit_polls=protocol.implicit_polls,
        early_renaks=protocol.early_renaks,
    )


def _stall_report(protocol: _ReceiverProtocol, start: float) -> StallReport:
    loop = asyncio.get_running_loop()
    return StallReport(
        protocol="net-np",
        sim_time=loop.time() - start,
        events_dispatched=protocol.frames_received,
        pending_events=0,
        receivers=(
            ReceiverStall(
                receiver_id=0,
                missing_groups=protocol.missing_groups(),
                last_progress_time=max(0.0, protocol.last_stream_rx - start),
                watchdog_retries=protocol.scheduler.retries_granted,
                watchdog_exhaustions=protocol.scheduler.exhaustions,
                crashes=0,
            ),
        ),
        abandoned_groups=tuple(sorted(protocol.abandoned)),
        injected_faults={},
        seed=protocol.config.seed,
        fault_plan=None,
    )


async def _join(
    protocol: _ReceiverProtocol, alarm: _Alarm, start: float, deadline: float
) -> None:
    """Solicit membership under the join retry budget."""
    loop = asyncio.get_running_loop()
    policy = protocol.config.join_retry
    join = SessionJoin(group=protocol.group, nonce=protocol.nonce)

    def joined() -> bool:
        return protocol.announce is not None

    for attempt in range(1, policy.retries + 2):
        protocol.send(join)
        wait = min(
            policy.delay(attempt, protocol.rng),
            max(0.01, deadline - (loop.time() - start)),
        )
        await alarm.sleep(loop.time() + wait, joined)
        if joined():
            return
        if loop.time() - start > deadline:
            raise TransferTimeout(
                "net fetch: no announce before the deadline",
                _stall_report(protocol, start),
            )
    raise TransferStalled(
        f"net fetch: join solicitation exhausted after "
        f"{policy.retries + 1} attempts",
        _stall_report(protocol, start),
    )


async def _recover(
    protocol: _ReceiverProtocol, alarm: _Alarm, start: float, deadline: float
) -> None:
    """Drive the NAK watchdog until delivery, ejection or exhaustion.

    An ``ejected`` fin is terminal only once ``config.rejoin_attempts``
    is spent: until then the receiver re-joins the live session and
    resumes from its retained decoder state — the sender revives the
    member and serves repairs for whatever is still missing.
    """
    loop = asyncio.get_running_loop()
    rejoins_left = protocol.config.rejoin_attempts
    while True:
        while not protocol.done:
            now = loop.time()
            if now - start > deadline:
                raise TransferTimeout(
                    f"net fetch: deadline of {deadline}s elapsed with "
                    f"{len(protocol.missing_groups())} groups missing",
                    _stall_report(protocol, start),
                )
            protocol.solicit(now)
            if protocol.budget_exhausted(now):
                raise TransferStalled(
                    "net fetch: NAK retry budget exhausted with the stream "
                    "silent",
                    _stall_report(protocol, start),
                )
            await alarm.sleep(
                now + protocol.scan_delay(now), lambda: protocol.done
            )
        if protocol.fin_reason == "ejected" and rejoins_left > 0:
            rejoins_left -= 1
            protocol.rejoin(loop.time())
            continue
        if protocol.fin_reason in ("ejected", "aborted"):
            raise TransferStalled(
                f"net fetch: sender closed the session "
                f"({protocol.fin_reason})",
                _stall_report(protocol, start),
            )
        return


async def _complete(protocol: _ReceiverProtocol, alarm: _Alarm) -> None:
    """Tell the sender we are done; tolerate a lost fin."""
    loop = asyncio.get_running_loop()
    complete = SessionComplete(
        delivered=len(protocol.delivered), failed=len(protocol.abandoned)
    )
    protocol.done = False
    protocol.fin_reason = None
    # a fin answers a complete sooner than repairs answer a NAK (no
    # aggregation window), so the measured NAK response time is patience
    # enough between repeats
    wait = min(_COMPLETE_WAIT, protocol.scheduler.rto or _COMPLETE_WAIT)
    for _ in range(protocol.config.complete_repeats):
        protocol.send(complete)
        await alarm.sleep(loop.time() + wait, lambda: protocol.done)
        if protocol.done and protocol.fin_reason == "complete":
            return
    # fin never arrived — the data is delivered regardless; the sender's
    # member timeout will reap us
