"""Robustness machinery for the UDP transport: pacing, deadlines, backoff.

Three pieces, all deliberately sharing vocabulary with the rest of the
repo so one mental model covers simulator and transport:

* :class:`NetConfig` — every knob of a transfer session, validated at
  construction like :class:`~repro.protocols.np_protocol.NPConfig`.
* :class:`Pacer` — sender-side pacing/backpressure: one deadline
  schedule per session, awaited (``gate()``) by the session's driver
  before every frame of its one send queue, which bounds the session's
  bursts and yields the event loop so feedback is read *during* the
  stream (without it, every NAK would look stale).
* :class:`NakScheduler` — per-group NAK solicitation state on the
  receiver: deadline, seeded exponential backoff with jitter, and a hard
  retry budget, driven by a
  :class:`~repro.campaign.retry.RetryPolicy`.
  When every outstanding group has exhausted its budget the transfer is
  declared stalled (typed failure), never silently hung.  Beside that
  configured patience it keeps a measured one: an RFC 6298 estimate of
  the NAK -> response time, which buys each silent group one unbilled
  early re-NAK (DESIGN.md section 14, "recovery timers").
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.campaign.retry import RetryPolicy

__all__ = ["NetConfig", "Pacer", "NakScheduler", "GroupNakState"]

#: floor of the scan period derived from the retry base delay and of the
#: measured response timeout: keeps a pathological policy, or a response
#: measured in microseconds on loopback, from busy-spinning the event loop
_MIN_TICK = 0.005


@dataclass(frozen=True)
class NetConfig:
    """Parameters of a real-socket transfer session.

    FEC geometry (``k``, ``h``, ``packet_size``) mirrors
    :class:`~repro.protocols.np_protocol.NPConfig`; ``codec`` is the
    constant ``"rse"`` the session announce carries, not a knob.  The
    remaining fields bound the transport's patience:

    ``pace_interval``/``pace_burst`` shape the sender's downstream rate:
    one schedule per session (:class:`Pacer`) over its one send queue,
    stream and repairs alike, sends at most ``pace_burst`` frames per
    ``pace_interval * pace_burst`` seconds on absolute deadlines.  Even
    at ``pace_interval=0`` it yields the event loop every burst, so
    feedback is processed mid-stream — that yield *is* the backpressure.

    ``join_window`` is the sender's gathering window: joins with the same
    group tag arriving within it share a session (the unicast fan-out
    emulation of a multicast group).

    ``nak_retry`` governs the receiver's NAK solicitation per group:
    base deadline ``nak_retry.base_delay``, exponential backoff with
    seeded jitter, at most ``nak_retry.retries`` re-NAKs after the first.
    ``join_retry`` does the same for the initial join handshake.

    ``member_timeout`` is the sender's degraded-completion deadline: an
    incomplete receiver silent that long is ejected (told via
    ``SessionFin("ejected")``) instead of stalling the whole session.
    ``session_deadline`` bounds a session's total lifetime the same way.
    ``max_rounds`` (0 = unlimited) caps repair rounds per transmission
    group; on exceedance the group is abandoned with a ``GroupAbort``
    exactly like the simulator's eject policy.
    """

    k: int = 8
    h: int = 16
    packet_size: int = 1024
    codec: ClassVar[str] = "rse"
    seed: int = 0
    pace_interval: float = 0.0002
    pace_burst: int = 16
    join_window: float = 0.05
    #: sender-side NAK aggregation: the first NAK of a round opens this
    #: window; repairs sized to the *max* shortfall seen in it are sent at
    #: close (the real-socket analogue of the paper's NAK slot discipline)
    nak_aggregation: float = 0.01
    nak_retry: RetryPolicy = field(
        default=RetryPolicy(
            retries=8, base_delay=0.25, backoff=1.6, max_delay=2.0, jitter=0.25
        )
    )
    join_retry: RetryPolicy = field(
        default=RetryPolicy(
            retries=4, base_delay=0.2, backoff=2.0, max_delay=2.0, jitter=0.25
        )
    )
    member_timeout: float = 5.0
    session_deadline: float = 60.0
    max_rounds: int = 64
    #: times a receiver re-sends SessionComplete (fire-and-forget ack)
    complete_repeats: int = 3
    #: times a receiver that learns it was ejected (``SessionFin``
    #: "ejected" after a blackout) re-joins the live session and resumes
    #: recovery from its retained decoder state instead of
    #: failing; 0 keeps the pre-churn behaviour (eject is final)
    rejoin_attempts: int = 0
    #: sender-side revive grace: a session whose only unfinished members
    #: are *ejected* lingers this long (bounded by ``session_deadline``)
    #: before finishing, so a member eclipsed by a blackout can rejoin the
    #: same session and resume from its decoder state; 0 finishes eagerly
    revive_window: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0 <= self.h <= 0xFFFF:
            raise ValueError(f"h must be in [0, 65535], got {self.h}")
        if self.k > 0xFFFF:
            raise ValueError(f"k must fit u16, got {self.k}")
        if self.packet_size < 1:
            raise ValueError(
                f"packet_size must be >= 1, got {self.packet_size}"
            )
        if self.pace_interval < 0:
            raise ValueError("pace_interval must be >= 0")
        if self.pace_burst < 1:
            raise ValueError("pace_burst must be >= 1")
        if self.join_window < 0:
            raise ValueError("join_window must be >= 0")
        if self.nak_aggregation < 0:
            raise ValueError("nak_aggregation must be >= 0")
        if self.member_timeout <= 0:
            raise ValueError("member_timeout must be positive")
        if self.session_deadline <= 0:
            raise ValueError("session_deadline must be positive")
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {self.max_rounds}")
        if self.complete_repeats < 1:
            raise ValueError("complete_repeats must be >= 1")
        if self.rejoin_attempts < 0:
            raise ValueError(
                f"rejoin_attempts must be >= 0, got {self.rejoin_attempts}"
            )
        if self.revive_window < 0:
            raise ValueError(
                f"revive_window must be >= 0, got {self.revive_window}"
            )


class Pacer:
    """One session's send schedule: bounded bursts on absolute deadlines.

    The session's driver sleeps what :meth:`delay` returns (what
    :meth:`gate` awaits) before every frame it pops, stream and repairs
    alike, so the session sends at most ``burst`` frames per
    ``interval * burst`` seconds.  Frame ``n`` (counted from 1) belongs
    to burst ``n // burst``; burst 0 is due at the first gate, each
    later burst one period after the last, and every frame of a
    burst waits for its deadline.  A burst is never due before it is
    opened, so after a stall at most one burst of debt is owed, never
    the periods the stall swallowed.  The opening frame yields the loop
    even when its deadline has passed (``interval == 0`` included), so
    inbound datagrams are read between bursts: that yield *is* the
    backpressure.
    """

    def __init__(self, interval: float, burst: int):
        if interval < 0:
            raise ValueError("interval must be >= 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.interval = interval
        self.burst = burst
        self.period = interval * burst
        #: deadline of the latest burst opened; None before the first gate
        self._due: float | None = None
        #: frames gated and bursts opened (each one a loop yield)
        self.frames = 0
        self.sleeps = 0

    def delay(self) -> float | None:
        """Count one frame: the seconds to sleep before sending it, or
        ``None`` to send it without yielding the loop."""
        self.frames += 1
        opens = self.frames % self.burst == 0
        if opens:
            self.sleeps += 1
        if not self.period:
            return 0.0 if opens else None  # no deadlines: the yield is all
        now = asyncio.get_running_loop().time()
        if self._due is None:
            self._due = now
        if opens:
            self._due = max(self._due + self.period, now)
        if opens or self._due > now:
            return self._due - now
        return None

    async def gate(self) -> None:
        """Await before sending one frame."""
        if (wait := self.delay()) is not None:
            await asyncio.sleep(wait)


@dataclass
class GroupNakState:
    """Solicitation state of one incomplete transmission group."""

    attempts: int = 0
    #: next billed re-NAK; ``None`` = one base interval (jitter not yet
    #: drawn) after ``quiet_since``
    next_due: float | None = 0.0
    exhausted: bool = False
    #: last sign of life, or last unbilled NAK, whichever is later
    quiet_since: float = 0.0
    #: oldest NAK sent since then, awaiting its first response frame
    nak_at: float | None = None
    #: a response is owed: a NAK is out, or the stream ends with this group
    owed: bool = False
    #: the one early re-NAK of this silence has been sent
    early_spent: bool = False


class NakScheduler:
    """Deadline/backoff/budget bookkeeping for receiver-side NAKs.

    Pure: every method takes the clock, nothing here knows asyncio.  The
    receiver's recovery loop calls :meth:`early` and :meth:`due` each
    scan and sleeps until :meth:`next_wake`.

    *Configured* patience: :meth:`due` answers with the groups whose
    deadline has passed and whose budget is not yet dry, advancing their
    backoff schedule (jitter drawn from a ``numpy`` generator seeded by
    the caller, so two runs with the same seed draw identical backoff
    sequences).  :meth:`heard` resets a group after any sign of life,
    mirroring the simulator watchdog; it records the time only, and the
    jittered deadline is drawn when a scan first looks at it.

    *Measured* patience: every unbilled NAK (:meth:`nak_sent`) stamps its
    group, and the first frame heard for the group afterwards is one
    sample of NAK -> response latency for an RFC 6298 estimator
    (:attr:`rto`).  A group that is owed a response and has been silent
    for ``rto`` gets one :meth:`early` re-NAK per silence.  It is not
    billed and moves no deadline, so the billed schedule -- and with it
    the time from the last sign of life to exhaustion -- is exactly what
    the policy says, with or without samples.
    """

    def __init__(self, policy: RetryPolicy, rng: np.random.Generator):
        self.policy = policy
        self.rng = rng
        self._groups: dict[int, GroupNakState] = {}
        #: total re-NAK attempts granted (first NAK per poll not counted)
        self.retries_granted = 0
        #: groups whose budget ran dry at least once
        self.exhaustions = 0
        #: smoothed NAK -> response time and its mean deviation (RFC 6298)
        self.srtt: float | None = None
        self.rttvar = 0.0

    @property
    def tick(self) -> float:
        """Longest the recovery loop sleeps between scans."""
        return max(_MIN_TICK, self.policy.base_delay / 4.0)

    @property
    def rto(self) -> float | None:
        """Measured response timeout; ``None`` before the first sample."""
        if self.srtt is None:
            return None
        return min(
            max(_MIN_TICK, self.srtt + 4.0 * self.rttvar),
            max(_MIN_TICK, self.policy.base_delay),
        )

    def _observe(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar += (abs(self.srtt - sample) - self.rttvar) / 4.0
            self.srtt += (sample - self.srtt) / 8.0

    def state(self, tg: int) -> GroupNakState:
        group = self._groups.get(tg)
        if group is None:
            group = self._groups[tg] = GroupNakState()
        return group

    def waiting(self) -> list[int]:
        """The groups being solicited: armed and not yet forgotten."""
        return list(self._groups)

    def arm(self, tg: int, now: float, final: bool = False) -> None:
        """Start (or restart) the deadline for ``tg`` without spending.

        ``final`` marks the stream's last group: no later frame can show
        that its poll went out, so silence after it is owed an answer.
        """
        group = self.state(tg)
        group.quiet_since = now
        group.next_due = None
        group.owed = group.owed or final

    def heard(self, tg: int, now: float) -> None:
        """Any sign of life for ``tg``: reset its backoff schedule."""
        group = self._groups.get(tg)
        if group is None:
            return
        if group.nak_at is not None:
            # a billed retry since the stamp means a long silence lay
            # between NAK and response: that is loss, not latency
            if group.attempts == 0:
                self._observe(now - group.nak_at)
            group.nak_at = None
        group.attempts = 0
        group.exhausted = False
        group.early_spent = False
        group.quiet_since = now
        group.next_due = None

    def nak_sent(self, tg: int, now: float) -> None:
        """An unbilled NAK (poll-solicited or implied) left for ``tg``.

        The deadline restarts behind it, as after a sign of life.
        """
        group = self.state(tg)
        if group.nak_at is None:
            group.nak_at = now
        group.owed = True
        group.early_spent = False
        group.quiet_since = now
        group.next_due = None

    def forget(self, tg: int) -> None:
        """The group is delivered or abandoned: stop soliciting."""
        self._groups.pop(tg, None)

    def _deadline(self, group: GroupNakState) -> float:
        if group.next_due is None:
            group.next_due = group.quiet_since + self.policy.delay(1, self.rng)
        return group.next_due

    @staticmethod
    def _early_at(group: GroupNakState, rto: float | None) -> float:
        """When ``group``'s early re-NAK falls due (never: ``inf``)."""
        if rto is None or not group.owed:
            return math.inf
        if group.early_spent or group.exhausted:
            return math.inf
        return group.quiet_since + rto

    def early(self, now: float, limit: int) -> list[int]:
        """Up to ``limit`` groups owed a response and silent for ``rto``.

        Each gets this once per silence; nothing is billed and no
        deadline moves.  Empty until the estimator has a sample.
        """
        rto = self.rto
        ready: list[int] = []
        for tg, group in self._groups.items():
            if len(ready) >= limit:
                break
            if self._early_at(group, rto) <= now:
                group.early_spent = True
                ready.append(tg)
        return ready

    def due(self, candidates, now: float, limit: int) -> list[int]:
        """Up to ``limit`` groups from ``candidates`` due for a re-NAK.

        Each returned group's budget is spent by one attempt and its next
        deadline pushed out by the seeded backoff.  Groups whose budget is
        dry are marked ``exhausted`` and never returned again (until
        :meth:`heard` revives them).
        """
        ready: list[int] = []
        for tg in candidates:
            if len(ready) >= limit:
                break
            group = self.state(tg)
            if group.exhausted or self._deadline(group) > now:
                continue
            if group.attempts >= self.policy.retries:
                group.exhausted = True
                self.exhaustions += 1
                continue
            group.attempts += 1
            self.retries_granted += 1
            # delay(attempt) is the wait *after* attempt N: attempts == 1
            # maps to the second interval of the schedule, and so on
            group.next_due = now + self.policy.delay(
                group.attempts + 1, self.rng
            )
            ready.append(tg)
        return ready

    def next_wake(self) -> float | None:
        """Earliest pending deadline, billed or early; ``None`` if idle."""
        rto = self.rto
        return min(
            (
                min(self._deadline(group), self._early_at(group, rto))
                for group in self._groups.values()
                if not group.exhausted
            ),
            default=None,
        )

    def all_exhausted(self, candidates) -> bool:
        """True when every candidate group's retry budget is dry."""
        candidates = list(candidates)
        if not candidates:
            return False
        return all(self.state(tg).exhausted for tg in candidates)

    @property
    def max_attempts_spent(self) -> int:
        """Largest per-group attempt count (for budget assertions)."""
        if not self._groups:
            return 0
        return max(group.attempts for group in self._groups.values())
