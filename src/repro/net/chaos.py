"""Seeded chaos datagram proxy: socket-layer fault injection.

The simulator's fault layer (:mod:`repro.resilience.faults`) mangles
packets inside the event loop; this module does the same to *real UDP
datagrams* so the transport's robustness is testable without a WAN.  A
:class:`ChaosProxy` sits between receivers and a
:class:`~repro.net.endpoints.NetServer`::

    receiver  <->  proxy (listen)  <->  server (upstream)

and applies seeded faults per direction — ``forward`` is
server-to-receiver (data, polls, fins), ``backward`` is
receiver-to-server (joins, NAKs, completes):

* **loss** — the datagram vanishes;
* **corrupt** — one byte is flipped (the frame CRC turns this into a
  counted drop at the endpoint);
* **duplicate** — the datagram is delivered twice;
* **reorder** — the datagram is held back ``reorder_delay`` seconds so
  later traffic overtakes it;
* **jitter** — a uniform random extra delay;
* **blackouts** — wall-clock windows (seconds since proxy start) during
  which the direction is silently absorbed; a backward blackout is the
  paper's nightmare scenario of a feedback channel going dark;
* **member churn** — per-member eclipse windows (:class:`MemberChurn`):
  both directions of one client leg go dark while that member's
  availability schedule says its machine (or rack) is down, the
  socket-layer realisation of :mod:`repro.sim.failure` schedules.

Determinism: every fault decision comes from a :class:`FaultSchedule`
seeded by ``(plan.seed, direction)`` that draws a *fixed* number of
variates per datagram, so the fault verdict for the N-th datagram of a
direction is a pure function of ``(seed, direction, N)`` — same seed,
same schedule, regardless of which faults actually fire.  (End-to-end
*timing* still belongs to the OS; tests assert schedule determinism
directly and transfer-level invariants elsewhere.)

The proxy is payload-agnostic: it never decodes frames, so it exercises
the endpoints' strict decoders with genuine garbage.
"""

from __future__ import annotations

import asyncio
import socket
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.net.udp import DatagramSocket, open_datagram

__all__ = [
    "ChaosPlan",
    "FaultDecision",
    "FaultSchedule",
    "MemberChurn",
    "ChaosProxy",
]

Address = tuple

_DIRECTIONS = ("forward", "backward")


@dataclass(frozen=True)
class ChaosPlan:
    """Fault mix for one proxy direction; all probabilities independent."""

    seed: int = 0
    loss: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    #: how long a reordered datagram is held back (seconds)
    reorder_delay: float = 0.02
    #: max uniform extra delay applied to every surviving datagram
    jitter: float = 0.0
    #: absolute silence windows, seconds since proxy start: ((lo, hi), ...)
    blackouts: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("loss", "corrupt", "duplicate", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.reorder_delay < 0 or self.jitter < 0:
            raise ValueError("delays must be >= 0")
        for window in self.blackouts:
            lo, hi = window
            if not 0 <= lo < hi:
                raise ValueError(f"bad blackout window {window}")

    def in_blackout(self, elapsed: float) -> bool:
        return any(lo <= elapsed < hi for lo, hi in self.blackouts)


@dataclass(frozen=True)
class MemberChurn:
    """Per-member eclipse windows: the proxy's availability-churn mode.

    Direction blackouts (:attr:`ChaosPlan.blackouts`) silence a whole
    direction; ``MemberChurn`` instead eclipses *individual members* —
    both directions of one client leg go dark during that member's
    windows, which is what a receiver's machine (or its rack) being down
    looks like from the network.  ``windows[i]`` are the ``(lo, hi)``
    wall-clock windows (seconds since proxy start) of the ``i``-th client
    leg in arrival order; members beyond the tuple are never eclipsed.
    Build the windows from an availability schedule with
    :func:`repro.sim.failure.member_blackout_windows`.
    """

    windows: tuple[tuple[tuple[float, float], ...], ...] = ()

    def __post_init__(self) -> None:
        normalised = tuple(
            tuple((float(lo), float(hi)) for lo, hi in member)
            for member in self.windows
        )
        object.__setattr__(self, "windows", normalised)
        for member in self.windows:
            for lo, hi in member:
                if not 0 <= lo < hi:
                    raise ValueError(f"bad churn window ({lo}, {hi})")

    def in_blackout(self, member: int, elapsed: float) -> bool:
        if not 0 <= member < len(self.windows):
            return False
        return any(
            lo <= elapsed < hi for lo, hi in self.windows[member]
        )


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
        if direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")
        self.plan = plan
        self.direction = direction
        self.rng = np.random.default_rng(
            [plan.seed, _DIRECTIONS.index(direction)]
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


@dataclass
class _ClientLeg:
    #: arrival order of this client, indexing :attr:`MemberChurn.windows`
    index: int
    #: server-facing socket: one per client, so the server can tell
    #: receivers apart by source address
    upstream: DatagramSocket


class ChaosProxy:
    """A lossy, corrupting, reordering UDP hop between fetchers and server.

    Usage::

        proxy = ChaosProxy(server_addr, forward=plan, backward=plan)
        host, port = await proxy.start()
        ...                        # receivers fetch from (host, port)
        await proxy.close()        # fault counters in proxy.stats
    """

    def __init__(
        self,
        upstream: Address,
        forward: ChaosPlan | None = None,
        backward: ChaosPlan | None = None,
        churn: MemberChurn | None = None,
    ):
        self.upstream = tuple(upstream)
        self.churn = churn
        self.plans = {
            "forward": forward or ChaosPlan(),
            "backward": backward or ChaosPlan(),
        }
        self.schedules = {
            direction: FaultSchedule(plan, direction)
            for direction, plan in self.plans.items()
        }
        self.stats: dict[str, int] = {}
        #: receiver-facing socket: one for the whole proxy
        self._listen: DatagramSocket | None = None
        #: address family and resolved address of the server
        self._upstream: tuple[int, Address] | None = None
        self._legs: dict[Address, _ClientLeg] = {}
        #: datagrams held back by reorder or jitter, until they are sent
        self._handles: set[asyncio.TimerHandle] = set()
        self._started_at = 0.0

    def _count(self, direction: str, fault: str) -> None:
        key = f"{direction}.{fault}"
        self.stats[key] = self.stats.get(key, 0) + 1
        if obs.is_enabled() and fault != "forwarded":
            obs.counter(
                "chaos.injected", fault=fault, direction=direction
            ).inc()

    @property
    def address(self) -> Address:
        if self._listen is None:
            raise RuntimeError("proxy not started")
        return self._listen.sockname[:2]

    async def start(self, bind: Address = ("127.0.0.1", 0)) -> Address:
        loop = asyncio.get_running_loop()
        host, port = self.upstream[:2]
        family, _, _, _, address = (
            await loop.getaddrinfo(host, port, type=socket.SOCK_DGRAM)
        )[0]
        self._upstream = (family, address)
        self._listen = await open_datagram(self._from_client, local=tuple(bind))
        self._started_at = loop.time()
        return self.address

    async def close(self) -> None:
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()
        for leg in self._legs.values():
            leg.upstream.close()
        self._legs.clear()
        if self._listen is not None:
            self._listen.close()
            self._listen = None

    # -- traffic ----------------------------------------------------------
    def _eclipsed(self, leg: _ClientLeg, direction: str) -> bool:
        """Is this member inside one of its churn windows right now?"""
        if self.churn is None:
            return False
        elapsed = asyncio.get_running_loop().time() - self._started_at
        if not self.churn.in_blackout(leg.index, elapsed):
            return False
        self._count(direction, "member_blackout")
        return True

    def _from_client(self, data: bytes, client: Address) -> None:
        leg = self._legs.get(client)
        if leg is None:
            family, upstream = self._upstream
            leg = self._legs[client] = _ClientLeg(
                index=len(self._legs),
                upstream=DatagramSocket.bound(
                    family,
                    lambda reply, _addr: self._from_upstream(reply, client),
                    remote=upstream,
                ),
            )
        if self._eclipsed(leg, "backward"):
            return
        self._inject(
            "backward", data, lambda payload: self._send_upstream(client, payload)
        )

    def _send_upstream(self, client: Address, payload: bytes) -> None:
        leg = self._legs.get(client)
        if leg is not None:
            leg.upstream.sendto(payload)

    def _from_upstream(self, data: bytes, client: Address) -> None:
        leg = self._legs.get(client)
        if leg is not None and self._eclipsed(leg, "forward"):
            return
        self._inject(
            "forward", data, lambda payload: self._send_client(client, payload)
        )

    def _send_client(self, client: Address, payload: bytes) -> None:
        if self._listen is not None:
            self._listen.sendto(payload, client)

    def _inject(self, direction: str, data: bytes, send) -> None:
        loop = asyncio.get_running_loop()
        plan = self.plans[direction]
        if plan.in_blackout(loop.time() - self._started_at):
            self._count(direction, "blackout")
            return
        decision = self.schedules[direction].decide(len(data))
        if decision.drop:
            self._count(direction, "dropped")
            return
        if decision.corrupt_at is not None and data:
            self._count(direction, "corrupted")
            flipped = bytearray(data)
            flipped[decision.corrupt_at % len(data)] ^= 0xFF
            data = bytes(flipped)
        copies = 2 if decision.duplicate else 1
        if decision.duplicate:
            self._count(direction, "duplicated")
        self._count(direction, "forwarded")
        for _ in range(copies):
            if decision.delay > 0:
                self._count(direction, "delayed")
                self._hold(decision.delay, send, data)
            else:
                send(data)

    def _hold(self, delay: float, send, data: bytes) -> None:
        """Send ``data`` after ``delay``; the handle is kept until then,
        so :meth:`close` can cancel it, and dropped once it fires."""

        def release() -> None:
            self._handles.discard(handle)
            send(data)

        handle = asyncio.get_running_loop().call_later(delay, release)
        self._handles.add(handle)
