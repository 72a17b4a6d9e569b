"""One fault vocabulary for the event simulator and the socket proxy.

The same seeded faults run on two executors: :class:`FaultInjector` wraps
the simulator's :class:`~repro.sim.network.MulticastNetwork`, and
:class:`repro.net.chaos.ChaosProxy` sits between real UDP sockets.  Both
speak :class:`ChaosPlan` — one direction's per-datagram rates and blackout
windows — and both take every per-datagram verdict from
:class:`FaultSchedule`.  ``forward`` is toward receivers (data, polls,
fins; on the simulator also the NAKs a receiver overhears from another);
``backward`` is toward the sender (joins, NAKs, completes).

One decision rule, applied when a datagram reaches the fault point (on the
simulator when the link delivers it, after the network latency; on the
proxy when the proxy reads it):

1. **member windows** — a datagram to a member inside one of its down
   windows is absorbed (``member_blackout``); on the proxy a datagram
   *from* that member is absorbed too;
2. **blackouts** — inside one of the direction plan's windows the
   datagram is absorbed (``blackout``; a backward blackout is a deaf
   sender);
3. **the verdict** — :meth:`FaultSchedule.decide` makes six draws for
   every datagram that got this far, whatever the outcome, so verdict
   ``N`` of a direction depends only on ``(seed, direction, N)``.  It
   drops the datagram (``dropped``), or flips one payload byte
   (``corrupted``; headers stay intact, checksums demote the damage to an
   erasure), delivers it twice (``duplicated``), and holds every copy
   back ``reorder_delay`` and/or ``U(0, jitter)`` seconds (``delayed``);
   windows are not checked again when it is released.

:class:`FaultPlan` adds what only the simulator can inflict: receiver
**crashes** (the receiver's ``crash()`` hook drops its decoder state at
``at``, it is down for ``downtime`` seconds, then ``rejoin()`` re-solicits
repairs) and sender **stalls** (the sender's transmissions are held, in
order, until the window closes).  Every fault is counted in
``NetworkStats.injected`` under the proxy's names, ``forward.dropped``,
``backward.blackout`` and so on, plus ``crashes`` and ``sender_stalled``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sim.engine import Simulator
    from repro.sim.network import MulticastNetwork, NetworkStats

__all__ = [
    "ChaosPlan",
    "FaultDecision",
    "FaultSchedule",
    "ReceiverCrash",
    "FaultPlan",
    "FaultInjector",
    "as_windows",
    "covers",
    "flip_byte",
]

DIRECTIONS = ("forward", "backward")

#: ``(lo, hi)`` windows, seconds: since proxy start, or simulated time
Windows = tuple[tuple[float, float], ...]


def as_windows(pairs: Iterable[Sequence[float]], what: str) -> Windows:
    """``pairs`` as float ``(lo, hi)`` windows, each ``0 <= lo < hi``."""
    windows = tuple((float(lo), float(hi)) for lo, hi in pairs)
    for lo, hi in windows:
        if not 0 <= lo < hi:
            raise ValueError(f"bad {what} window ({lo}, {hi})")
    return windows


def covers(windows: Windows, time: float) -> bool:
    """Is ``time`` inside one of the ``[lo, hi)`` windows?"""
    return any(lo <= time < hi for lo, hi in windows)


def flip_byte(data: bytes, position: int) -> bytes:
    """``data`` with the byte at ``position`` (mod its length) inverted."""
    damaged = bytearray(data)
    damaged[position % len(damaged)] ^= 0xFF
    return bytes(damaged)


@dataclass(frozen=True)
class ChaosPlan:
    """Fault mix for one direction; all probabilities independent."""

    seed: int = 0
    loss: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    #: how long a reordered datagram is held back (seconds)
    reorder_delay: float = 0.02
    #: max uniform extra delay applied to every surviving datagram
    jitter: float = 0.0
    #: windows in which the whole direction is absorbed: ((lo, hi), ...)
    blackouts: Windows = ()

    def __post_init__(self) -> None:
        for name in ("loss", "corrupt", "duplicate", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.reorder_delay < 0 or self.jitter < 0:
            raise ValueError("delays must be >= 0")
        object.__setattr__(
            self, "blackouts", as_windows(self.blackouts, "blackout")
        )

    def in_blackout(self, elapsed: float) -> bool:
        return covers(self.blackouts, elapsed)

    def describe(self) -> str:
        """The faults this direction injects, or "" when it injects none."""
        parts = [
            f"{name}={getattr(self, name):.3g}"
            for name in ("loss", "corrupt", "duplicate", "reorder", "jitter")
            if getattr(self, name)
        ]
        if self.blackouts:
            parts.append(f"{len(self.blackouts)} blackout(s)")
        return f"seed={self.seed}, " + ", ".join(parts) if parts else ""


@dataclass(frozen=True)
class FaultDecision:
    """The verdict for one datagram."""

    drop: bool = False
    #: byte position to flip, None for no corruption
    corrupt_at: int | None = None
    duplicate: bool = False
    #: seconds to hold the datagram back (reorder + jitter)
    delay: float = 0.0


class FaultSchedule:
    """Deterministic per-datagram fault decisions for one direction.

    Draws exactly six variates per :meth:`decide` call whatever the
    outcome, so decision ``N`` depends only on ``(plan.seed, direction,
    N)`` — the property the determinism smoke test pins.
    """

    def __init__(self, plan: ChaosPlan, direction: str):
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        self.plan = plan
        self.direction = direction
        self.rng = np.random.default_rng(
            [plan.seed, DIRECTIONS.index(direction)]
        )
        self.ordinal = 0

    def decide(self, size: int) -> FaultDecision:
        """Verdict for the next datagram (of ``size`` bytes)."""
        plan = self.plan
        draws = self.rng.random(5)
        position = int(self.rng.integers(0, max(1, size)))
        self.ordinal += 1
        if draws[0] < plan.loss:
            return FaultDecision(drop=True)
        delay = 0.0
        if draws[2] < plan.reorder:
            delay += plan.reorder_delay
        if plan.jitter > 0:
            delay += draws[4] * plan.jitter
        return FaultDecision(
            corrupt_at=position if draws[1] < plan.corrupt else None,
            duplicate=draws[3] < plan.duplicate,
            delay=delay,
        )


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


@dataclass(frozen=True)
class FaultPlan:
    """Every fault one simulated run injects, in the proxy's vocabulary."""

    forward: ChaosPlan = ChaosPlan()
    backward: ChaosPlan = ChaosPlan()
    #: ``down[i]``: receiver ``i``'s down windows, in which nothing reaches
    #: it (receivers past the tuple are never down)
    down: tuple[Windows, ...] = ()
    crashes: tuple[ReceiverCrash, ...] = ()
    #: windows in which the sender's transmissions are held
    stalls: Windows = ()

    def __post_init__(self) -> None:
        down = tuple(as_windows(member, "down") for member in self.down)
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stalls", as_windows(self.stalls, "stall"))

    @property
    def is_noop(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (
            self.forward.describe()
            or self.backward.describe()
            or any(self.down)
            or self.crashes
            or self.stalls
        )

    def describe(self) -> str:
        parts = [
            f"{direction}({text})"
            for direction in DIRECTIONS
            if (text := getattr(self, direction).describe())
        ]
        if any(self.down):
            parts.append(f"{sum(map(len, self.down))} member window(s)")
        if self.crashes:
            parts.append(f"{len(self.crashes)} crash(es)")
        if self.stalls:
            parts.append(f"{len(self.stalls)} sender stall(s)")
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

        ``horizon`` bounds where windows and crashes land; ``intensity``
        scales the corruption, duplication and jitter both directions
        share.  An outage hits everyone (a forward blackout) or some
        receivers (their down windows).  The same arguments always yield
        the same plan, which is what makes chaos failures replayable.
        """
        if n_receivers < 1:
            raise ValueError(f"need >= 1 receiver, got {n_receivers}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        rng = np.random.default_rng(seed)
        corrupt = float(rng.uniform(0.0, 0.06)) * intensity
        duplicate = float(rng.uniform(0.0, 0.08)) * intensity
        jitter = float(rng.uniform(0.0, 0.04)) * intensity

        def window(shortest: float, longest: float) -> tuple[float, float]:
            start = float(rng.uniform(0.0, horizon))
            return (start, start + float(rng.uniform(shortest, longest)))

        blackouts = []
        down = [[] for _ in range(n_receivers)]
        for _ in range(int(rng.integers(0, 3))):
            outage = window(0.05, horizon / 5)
            if rng.random() < 0.5 and n_receivers > 1:
                count = int(rng.integers(1, max(2, n_receivers // 2 + 1)))
                victims = rng.choice(n_receivers, size=count, replace=False)
                for victim in victims:
                    down[int(victim)].append(outage)
            else:
                blackouts.append(outage)
        deaf = [window(0.05, horizon / 6)] if rng.random() < 0.4 else []
        crashes = []
        if include_crashes and rng.random() < 0.5:
            crashes.append(
                ReceiverCrash(
                    receiver=int(rng.integers(n_receivers)),
                    at=float(rng.uniform(0.1, horizon)),
                    downtime=float(rng.uniform(0.05, horizon / 6)),
                )
            )
        stalls = [window(0.02, horizon / 10)] if rng.random() < 0.3 else []

        rates = ChaosPlan(
            seed=seed,
            corrupt=min(1.0, corrupt),
            duplicate=min(1.0, duplicate),
            jitter=jitter,
        )
        return cls(
            forward=dataclasses.replace(rates, blackouts=blackouts),
            backward=dataclasses.replace(rates, blackouts=deaf),
            down=down,
            crashes=crashes,
            stalls=stalls,
        )


def _corrupt_copy(packet: Any, position: int) -> Any:
    """``packet`` with payload byte ``position`` flipped (header intact)."""
    payload = getattr(packet, "payload", b"")
    if not payload:
        return packet
    return dataclasses.replace(packet, payload=flip_byte(payload, position))


class FaultInjector:
    """Wraps a :class:`MulticastNetwork`, perturbing traffic per a plan.

    Exposes the surface the protocol state machines use, so senders and
    receivers are none the wiser.  Every delivery to a receiver passes
    the forward rule and every delivery to the sender the backward rule,
    through the one path :meth:`_deliver` builds.  The injector draws
    only from its own :class:`FaultSchedule` generators, so a plan that
    injects nothing leaves the transfer bit-identical.  Crashes call the
    receiver objects' hooks; the harness hands those over through
    :meth:`bind_receivers`.
    """

    def __init__(
        self,
        sim: Simulator,
        network: MulticastNetwork,
        plan: FaultPlan,
    ):
        named = max([len(plan.down) - 1] + [c.receiver for c in plan.crashes])
        if named >= network.n_receivers:
            raise ValueError(
                f"fault plan names receiver {named}, but the loss model "
                f"has only {network.n_receivers} receivers"
            )
        self.sim = sim
        self.inner = network
        self.plan = plan
        self.schedules = {
            direction: FaultSchedule(getattr(plan, direction), direction)
            for direction in DIRECTIONS
        }
        # a crashed receiver is down until it rejoins
        self._down: dict[int, list[tuple[float, float]]] = {
            receiver: list(windows)
            for receiver, windows in enumerate(plan.down)
        }
        for crash in plan.crashes:
            self._down.setdefault(crash.receiver, []).append(
                (crash.at, crash.rejoin_at)
            )
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

    def multicast_feedback(self, packet: Any, origin: int, kind: str = "nak") -> None:
        self.inner.multicast_feedback(packet, origin, kind=kind)

    def unicast_feedback(self, packet: Any, kind: str = "ack") -> None:
        self.inner.unicast_feedback(packet, kind=kind)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_sender(self, handler: Callable[[Any], None]) -> None:
        self.inner.attach_sender(self._deliver("backward", handler))

    def attach_receiver(self, handler: Callable[[Any], None]) -> int:
        receiver_id = self._attached
        self._attached += 1
        down = tuple(self._down.get(receiver_id, ()))
        inner_id = self.inner.attach_receiver(
            self._deliver("forward", handler, down)
        )
        assert inner_id == receiver_id
        return receiver_id

    def _deliver(self, direction: str, handler: Callable, down: Windows = ()):
        """``handler`` behind ``direction``'s rule and ``down`` windows."""
        sim = self.sim
        plan = getattr(self.plan, direction)
        decide = self.schedules[direction].decide
        count_injected = self.inner.stats.count_injected

        def count(fault: str) -> None:
            count_injected(f"{direction}.{fault}")

        def deliver(packet: Any) -> None:
            now = sim.now
            if covers(down, now):
                count("member_blackout")
                return
            if plan.in_blackout(now):
                count("blackout")
                return
            payload = getattr(packet, "payload", b"")
            decision = decide(len(payload))
            if decision.drop:
                count("dropped")
                return
            if decision.corrupt_at is not None and payload:
                count("corrupted")
                packet = _corrupt_copy(packet, decision.corrupt_at)
            if decision.duplicate:
                count("duplicated")
            for _ in range(2 if decision.duplicate else 1):
                if decision.delay > 0:
                    count("delayed")
                    sim.schedule(decision.delay, lambda: handler(packet))
                else:
                    handler(packet)

        return deliver

    # ------------------------------------------------------------------
    # crashes
    # ------------------------------------------------------------------
    def bind_receivers(self, receivers: Sequence[Any]) -> None:
        """Register receiver objects and schedule crash/rejoin events."""
        self._receivers = list(receivers)
        for crash in self.plan.crashes:
            self.sim.schedule(
                crash.at - min(crash.at, self.sim.now),
                lambda crash=crash: self._crash(crash),
            )

    def _hook(self, receiver: int, name: str) -> None:
        receivers = self._receivers
        target = receivers[receiver] if receiver < len(receivers) else None
        hook = getattr(target, name, None)
        if callable(hook):
            hook()

    def _crash(self, crash: ReceiverCrash) -> None:
        self.inner.stats.count_injected("crashes")
        self._hook(crash.receiver, "crash")
        self.sim.schedule(
            crash.downtime, lambda: self._hook(crash.receiver, "rejoin")
        )

    # ------------------------------------------------------------------
    # sender stalls
    # ------------------------------------------------------------------
    def _send(self, send: Callable, packet: Any, kind: str):
        now = self.sim.now
        for lo, hi in self.plan.stalls:
            if lo <= now < hi:
                self.inner.stats.count_injected("sender_stalled")
                self.sim.schedule(hi - now, lambda: send(packet, kind=kind))
                return None
        return send(packet, kind=kind)

    def multicast(self, packet: Any, kind: str = "data"):
        return self._send(self.inner.multicast, packet, kind)

    def multicast_control(self, packet: Any, kind: str = "poll") -> None:
        self._send(self.inner.multicast_control, packet, kind)
