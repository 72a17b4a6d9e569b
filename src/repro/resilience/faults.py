"""Seeded, deterministic fault injection for the multicast transport.

:class:`FaultPlan` is a frozen, declarative description of every fault a
chaos run injects; :class:`FaultInjector` wraps a
:class:`repro.sim.network.MulticastNetwork` and applies the plan at the
points where packets cross the wire.  The injector is strictly opt-in: the
harness only interposes it when a plan is passed, and a plan with all
rates at zero and no scheduled events perturbs nothing — the wrapped
network produces bit-identical transfers (the injector draws from its own
``seed``-derived generator, never from the transfer's).

Faults and where they bite:

* **corruption** (``corrupt_prob``) — a random bit of a payload-bearing
  downstream packet is flipped per delivery.  Headers stay intact (header
  damage is indistinguishable from loss, which the loss models already
  produce); receivers detect the damage via the per-packet checksum and
  demote it to an erasure.
* **duplication** (``duplicate_prob``) — a delivered packet (downstream or
  feedback) arrives a second time shortly after the first.
* **reordering** (``jitter``) — each delivery is delayed by an extra
  ``U(0, jitter)`` seconds, so consecutive packets overtake each other.
* **outages** — scheduled windows during which a subset of receivers is
  partitioned: nothing sent downstream (data, control or overheard
  feedback) reaches them.
* **feedback outages** — windows during which the sender is deaf: no NAK
  reaches it (a feedback blackout; receivers still overhear each other).
* **crashes** — a receiver dies at ``at``, losing all volatile decoder
  state (its ``crash()`` hook), receives nothing for ``downtime`` seconds
  and then rejoins (its ``rejoin()`` hook re-solicits repairs).
* **sender stalls** — windows during which the sender's own transmissions
  are held and released, in order, when the window closes.

Everything injected is counted in ``NetworkStats.injected`` so reports and
stall diagnoses can cite exactly what the run was subjected to.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.network import MulticastNetwork, NetworkStats

__all__ = ["OutageWindow", "ReceiverCrash", "FaultPlan", "FaultInjector"]


@dataclass(frozen=True)
class OutageWindow:
    """A ``[start, start + duration)`` fault window.

    ``receivers`` limits the window to a subset (None means everyone); the
    field is ignored for sender-side windows (feedback outages, stalls).
    """

    start: float
    duration: float
    receivers: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"outage start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ValueError(
                f"outage duration must be positive, got {self.duration}"
            )
        if self.receivers is not None:
            object.__setattr__(self, "receivers", tuple(self.receivers))

    @property
    def end(self) -> float:
        return self.start + self.duration

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "duration": self.duration,
            "receivers": (
                None if self.receivers is None else list(self.receivers)
            ),
        }


@dataclass(frozen=True)
class ReceiverCrash:
    """Receiver ``receiver`` dies at ``at`` and rejoins after ``downtime``."""

    receiver: int
    at: float
    downtime: float

    def __post_init__(self) -> None:
        if self.receiver < 0:
            raise ValueError(f"receiver must be >= 0, got {self.receiver}")
        if self.at < 0:
            raise ValueError(f"crash time must be >= 0, got {self.at}")
        if self.downtime <= 0:
            raise ValueError(
                f"downtime must be positive, got {self.downtime}"
            )

    @property
    def rejoin_at(self) -> float:
        return self.at + self.downtime

    def to_json(self) -> dict:
        return {
            "receiver": self.receiver,
            "at": self.at,
            "downtime": self.downtime,
        }


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, seeded description of every fault a run injects."""

    seed: int = 0
    corrupt_prob: float = 0.0
    duplicate_prob: float = 0.0
    jitter: float = 0.0
    outages: tuple[OutageWindow, ...] = ()
    feedback_outages: tuple[OutageWindow, ...] = ()
    crashes: tuple[ReceiverCrash, ...] = ()
    sender_stalls: tuple[OutageWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in ("corrupt_prob", "duplicate_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        for name in ("outages", "feedback_outages", "crashes", "sender_stalls"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def is_noop(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            self.corrupt_prob == 0.0
            and self.duplicate_prob == 0.0
            and self.jitter == 0.0
            and not self.outages
            and not self.feedback_outages
            and not self.crashes
            and not self.sender_stalls
        )

    def to_json(self) -> dict:
        """JSON-serializable dict.

        Plan and seed travel with a failure record, so any chaos failure
        it reports names what replays it.
        """
        return {
            "seed": self.seed,
            "corrupt_prob": self.corrupt_prob,
            "duplicate_prob": self.duplicate_prob,
            "jitter": self.jitter,
            "outages": [window.to_json() for window in self.outages],
            "feedback_outages": [
                window.to_json() for window in self.feedback_outages
            ],
            "crashes": [crash.to_json() for crash in self.crashes],
            "sender_stalls": [
                window.to_json() for window in self.sender_stalls
            ],
        }

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.corrupt_prob:
            parts.append(f"corrupt={self.corrupt_prob:.3f}")
        if self.duplicate_prob:
            parts.append(f"duplicate={self.duplicate_prob:.3f}")
        if self.jitter:
            parts.append(f"jitter={self.jitter:.3f}s")
        if self.outages:
            parts.append(f"{len(self.outages)} outage(s)")
        if self.feedback_outages:
            parts.append(f"{len(self.feedback_outages)} feedback outage(s)")
        if self.crashes:
            parts.append(f"{len(self.crashes)} crash(es)")
        if self.sender_stalls:
            parts.append(f"{len(self.sender_stalls)} sender stall(s)")
        return "FaultPlan(" + ", ".join(parts) + ")"

    @classmethod
    def random(
        cls,
        seed: int,
        n_receivers: int,
        horizon: float = 10.0,
        intensity: float = 1.0,
        include_crashes: bool = True,
    ) -> "FaultPlan":
        """A randomized but fully seed-determined plan for chaos testing.

        ``horizon`` bounds where scheduled events (outages, crashes, stalls)
        land; ``intensity`` scales the per-packet fault rates.  The same
        ``(seed, n_receivers, horizon, intensity)`` always yields the same
        plan, which is what makes chaos failures replayable.
        """
        if n_receivers < 1:
            raise ValueError(f"need >= 1 receiver, got {n_receivers}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        rng = np.random.default_rng(seed)
        corrupt = float(rng.uniform(0.0, 0.06)) * intensity
        duplicate = float(rng.uniform(0.0, 0.08)) * intensity
        jitter = float(rng.uniform(0.0, 0.04)) * intensity

        outages = []
        for _ in range(int(rng.integers(0, 3))):
            start = float(rng.uniform(0.0, horizon))
            duration = float(rng.uniform(0.05, horizon / 5))
            victims: tuple[int, ...] | None = None
            if rng.random() < 0.5 and n_receivers > 1:
                count = int(rng.integers(1, max(2, n_receivers // 2 + 1)))
                victims = tuple(
                    int(r)
                    for r in rng.choice(n_receivers, size=count, replace=False)
                )
            outages.append(OutageWindow(start, duration, victims))

        feedback_outages = []
        if rng.random() < 0.4:
            start = float(rng.uniform(0.0, horizon))
            feedback_outages.append(
                OutageWindow(start, float(rng.uniform(0.05, horizon / 6)))
            )

        crashes = []
        if include_crashes and rng.random() < 0.5:
            crashes.append(
                ReceiverCrash(
                    receiver=int(rng.integers(n_receivers)),
                    at=float(rng.uniform(0.1, horizon)),
                    downtime=float(rng.uniform(0.05, horizon / 6)),
                )
            )

        sender_stalls = []
        if rng.random() < 0.3:
            start = float(rng.uniform(0.0, horizon))
            sender_stalls.append(
                OutageWindow(start, float(rng.uniform(0.02, horizon / 10)))
            )

        return cls(
            seed=seed,
            corrupt_prob=min(1.0, corrupt),
            duplicate_prob=min(1.0, duplicate),
            jitter=jitter,
            outages=tuple(outages),
            feedback_outages=tuple(feedback_outages),
            crashes=tuple(crashes),
            sender_stalls=tuple(sender_stalls),
        )


def _covering(windows: Sequence[OutageWindow], time: float) -> bool:
    return any(window.covers(time) for window in windows)


def _corrupt_copy(packet: Any, rng: np.random.Generator) -> Any:
    """A copy of ``packet`` with one payload bit flipped (header intact)."""
    payload = getattr(packet, "payload", b"")
    if not payload:
        return packet
    damaged = bytearray(payload)
    position = int(rng.integers(len(damaged)))
    damaged[position] ^= 1 << int(rng.integers(8))
    return dataclasses.replace(packet, payload=bytes(damaged))


class FaultInjector:
    """Wraps a :class:`MulticastNetwork`, perturbing traffic per a plan.

    Exposes the same surface the protocol state machines use
    (``attach_*``, ``multicast*``, ``unicast_feedback``, ``n_receivers``,
    ``stats``, ``latency``) so senders and receivers are none the wiser.
    Injected faults are counted in ``stats.injected``.

    Crash faults need access to the receiver *objects* (to invoke their
    ``crash()``/``rejoin()`` hooks); the harness provides them via
    :meth:`bind_receivers` once construction is done.
    """

    def __init__(
        self,
        sim: Simulator,
        network: MulticastNetwork,
        plan: FaultPlan,
    ):
        for crash in plan.crashes:
            if crash.receiver >= network.n_receivers:
                raise ValueError(
                    f"crash names receiver {crash.receiver}, but the loss "
                    f"model has only {network.n_receivers} receivers"
                )
        self.sim = sim
        self.inner = network
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        # static per-receiver downtime windows derived from crash schedule
        self._crash_windows: dict[int, list[OutageWindow]] = {}
        for crash in plan.crashes:
            self._crash_windows.setdefault(crash.receiver, []).append(
                OutageWindow(crash.at, crash.downtime)
            )
        self._outages_by_receiver: dict[int, list[OutageWindow]] = {}
        self._receivers: list[Any] = []
        self._attached = 0

    # ------------------------------------------------------------------
    # pass-through surface
    # ------------------------------------------------------------------
    @property
    def n_receivers(self) -> int:
        return self.inner.n_receivers

    @property
    def stats(self) -> NetworkStats:
        return self.inner.stats

    @property
    def latency(self) -> float:
        return self.inner.latency

    def _count(self, kind: str) -> None:
        self.inner.stats.count_injected(kind)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_sender(self, handler: Callable[[Any], None]) -> None:
        self.inner.attach_sender(self._wrap_feedback(handler))

    def attach_receiver(self, handler: Callable[[Any], None]) -> int:
        receiver_id = self._attached
        self._attached += 1
        windows = [
            window
            for window in self.plan.outages
            if window.receivers is None or receiver_id in window.receivers
        ]
        windows.extend(self._crash_windows.get(receiver_id, ()))
        self._outages_by_receiver[receiver_id] = windows
        wrapped = self._wrap_receiver(receiver_id, handler)
        inner_id = self.inner.attach_receiver(wrapped)
        assert inner_id == receiver_id
        return receiver_id

    def bind_receivers(self, receivers: Sequence[Any]) -> None:
        """Register receiver objects and schedule crash/rejoin events."""
        self._receivers = list(receivers)
        for crash in self.plan.crashes:
            self.sim.schedule(
                crash.at - min(crash.at, self.sim.now),
                lambda crash=crash: self._crash(crash),
            )

    def _crash(self, crash: ReceiverCrash) -> None:
        self._count("crashes")
        receiver = (
            self._receivers[crash.receiver]
            if crash.receiver < len(self._receivers)
            else None
        )
        hook = getattr(receiver, "crash", None)
        if callable(hook):
            hook()
        self.sim.schedule(crash.downtime, lambda: self._rejoin(crash))

    def _rejoin(self, crash: ReceiverCrash) -> None:
        receiver = (
            self._receivers[crash.receiver]
            if crash.receiver < len(self._receivers)
            else None
        )
        hook = getattr(receiver, "rejoin", None)
        if callable(hook):
            hook()

    # ------------------------------------------------------------------
    # downstream path
    # ------------------------------------------------------------------
    def _stall_delay(self) -> float:
        """Seconds until the current sender-stall window (if any) closes."""
        now = self.sim.now
        for window in self.plan.sender_stalls:
            if window.covers(now):
                return window.end - now
        return 0.0

    def multicast(self, packet: Any, kind: str = "data"):
        delay = self._stall_delay()
        if delay > 0:
            self._count("sender_stalled")
            self.sim.schedule(
                delay, lambda: self.inner.multicast(packet, kind=kind)
            )
            return None
        return self.inner.multicast(packet, kind=kind)

    def multicast_control(self, packet: Any, kind: str = "poll") -> None:
        delay = self._stall_delay()
        if delay > 0:
            self._count("sender_stalled")
            self.sim.schedule(
                delay, lambda: self.inner.multicast_control(packet, kind=kind)
            )
            return
        self.inner.multicast_control(packet, kind=kind)

    def _wrap_receiver(
        self, receiver_id: int, handler: Callable[[Any], None]
    ) -> Callable[[Any], None]:
        plan = self.plan

        def deliver(packet: Any) -> None:
            delay = 0.0
            if plan.jitter > 0.0:
                delay = float(self.rng.random()) * plan.jitter
                if delay > 0.0:
                    self._count("jittered")
            self._dispatch(receiver_id, handler, packet, delay)
            if (
                plan.duplicate_prob > 0.0
                and self.rng.random() < plan.duplicate_prob
            ):
                self._count("duplicated")
                extra = delay + max(plan.jitter, self.inner.latency) * float(
                    self.rng.random()
                )
                self._dispatch(receiver_id, handler, packet, extra)

        return deliver

    def _dispatch(
        self,
        receiver_id: int,
        handler: Callable[[Any], None],
        packet: Any,
        delay: float,
    ) -> None:
        plan = self.plan
        if (
            plan.corrupt_prob > 0.0
            and getattr(packet, "payload", b"")
            and self.rng.random() < plan.corrupt_prob
        ):
            self._count("corrupted")
            packet = _corrupt_copy(packet, self.rng)
        if delay <= 0.0:
            self._finish(receiver_id, handler, packet)
        else:
            self.sim.schedule(
                delay, lambda: self._finish(receiver_id, handler, packet)
            )

    def _finish(
        self, receiver_id: int, handler: Callable[[Any], None], packet: Any
    ) -> None:
        # windows are checked at actual arrival time, so jittered packets
        # drifting into a partition or downtime are dropped like the rest
        if _covering(self._outages_by_receiver.get(receiver_id, ()), self.sim.now):
            self._count("outage_dropped")
            return
        handler(packet)

    # ------------------------------------------------------------------
    # feedback path
    # ------------------------------------------------------------------
    def multicast_feedback(self, packet: Any, origin: int, kind: str = "nak") -> None:
        self.inner.multicast_feedback(packet, origin, kind=kind)

    def unicast_feedback(self, packet: Any, kind: str = "ack") -> None:
        self.inner.unicast_feedback(packet, kind=kind)

    def _wrap_feedback(
        self, handler: Callable[[Any], None]
    ) -> Callable[[Any], None]:
        plan = self.plan

        def deliver(packet: Any) -> None:
            if _covering(plan.feedback_outages, self.sim.now):
                self._count("feedback_dropped")
                return
            delay = 0.0
            if plan.jitter > 0.0:
                delay = float(self.rng.random()) * plan.jitter
            if delay <= 0.0:
                handler(packet)
            else:
                self._count("jittered")
                self.sim.schedule(delay, lambda: handler(packet))
            if (
                plan.duplicate_prob > 0.0
                and self.rng.random() < plan.duplicate_prob
            ):
                self._count("duplicated")
                self.sim.schedule(
                    delay + self.inner.latency * float(self.rng.random()),
                    lambda: handler(packet),
                )

        return deliver
