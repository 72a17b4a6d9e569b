"""Seeded chaos datagram proxy: socket-layer fault injection.

:class:`ChaosProxy` applies the fault vocabulary of
:mod:`repro.resilience.faults`, the one the simulator's injector speaks
too, to *real UDP datagrams*, so the transport's robustness is testable
without a WAN.  It sits between receivers and a
:class:`~repro.net.endpoints.NetServer`::

    receiver  <->  proxy (listen)  <->  server (upstream)

Each direction has its own :class:`~repro.resilience.faults.ChaosPlan`:
``forward`` is server-to-receiver (data, polls, fins), ``backward`` is
receiver-to-server (joins, NAKs, completes).  Per-member ``down`` windows
eclipse both directions of one client leg (legs are numbered in arrival
order): a receiver's machine or rack going down, as the network sees it.
Windows are seconds since proxy start.  Every verdict comes from a
:class:`~repro.resilience.faults.FaultSchedule` seeded by ``(plan.seed,
direction)``, so the N-th datagram of a direction that passes the windows
gets the same verdict on every run; end-to-end *timing* still belongs to
the OS.  The proxy never decodes frames, so it exercises the endpoints'
strict decoders with genuine garbage.
"""

from __future__ import annotations

import asyncio
import socket
from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.net.udp import DatagramSocket, open_datagram
from repro.resilience.faults import (
    ChaosPlan,
    FaultDecision,
    FaultSchedule,
    Windows,
    as_windows,
    covers,
    flip_byte,
)

__all__ = ["ChaosPlan", "FaultDecision", "FaultSchedule", "ChaosProxy"]

Address = tuple


@dataclass
class _ClientLeg:
    #: arrival order of this client, indexing :attr:`ChaosProxy.down`
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
        down: Sequence[Windows] = (),
    ):
        self.upstream = tuple(upstream)
        #: ``down[i]``: the down windows of the ``i``-th client leg
        self.down = tuple(as_windows(member, "down") for member in down)
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
        """Is this member inside one of its down windows right now?"""
        if leg.index >= len(self.down):
            return False
        elapsed = asyncio.get_running_loop().time() - self._started_at
        if not covers(self.down[leg.index], elapsed):
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
            data = flip_byte(data, decision.corrupt_at)
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
