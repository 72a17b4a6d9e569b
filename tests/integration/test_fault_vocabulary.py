"""One fault vocabulary, two executors.

The simulator's :class:`~repro.resilience.faults.FaultInjector` and the
socket-layer :class:`~repro.net.chaos.ChaosProxy` take every per-datagram
verdict from :class:`~repro.resilience.faults.FaultSchedule`.  For one
:class:`~repro.resilience.faults.ChaosPlan`, what each executor delivers
must be exactly what ``FaultSchedule(plan, direction).decide`` rules,
datagram by datagram: the same drops, the same flipped bytes, the same
duplicates and, on the simulator clock, the same delays.
"""

from __future__ import annotations

import asyncio
import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.net.chaos import ChaosProxy
from repro.protocols.packets import DataPacket, checksum_of
from repro.resilience.faults import (
    ChaosPlan,
    FaultInjector,
    FaultPlan,
    FaultSchedule,
    flip_byte,
)
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss
from repro.sim.network import MulticastNetwork

pytestmark = pytest.mark.timeout(60)

PLAN = ChaosPlan(
    seed=7, loss=0.2, corrupt=0.2, duplicate=0.2, reorder=0.2,
    reorder_delay=0.3, jitter=0.1,
)
N = 200
LATENCY = 0.02
PAYLOADS = [bytes([i % 251]) * (16 + i % 5) for i in range(N)]


def ruled(direction: str, plan: ChaosPlan = PLAN) -> list[tuple]:
    """``(index, delay, bytes)`` of every copy the schedule lets through."""
    schedule = FaultSchedule(plan, direction)
    copies = []
    for index, payload in enumerate(PAYLOADS):
        verdict = schedule.decide(len(payload))
        if verdict.drop:
            continue
        if verdict.corrupt_at is not None:
            payload = flip_byte(payload, verdict.corrupt_at)
        copies += [(index, verdict.delay, payload)] * (1 + verdict.duplicate)
    return copies


def simulate(plan: FaultPlan, direction: str) -> tuple[list, dict]:
    """Send PAYLOADS one second apart through an injector over a lossless
    one-receiver network, toward the receiver (forward) or the sender
    (backward); returns the arrivals and the injected counters."""
    sim = Simulator()
    network = MulticastNetwork(
        sim, BernoulliLoss(1, 0.0), np.random.default_rng(0), latency=LATENCY
    )
    injector = FaultInjector(sim, network, plan)
    arrivals = []

    def arrive(packet) -> None:
        arrivals.append((packet.tg, sim.now, packet.payload))

    injector.attach_sender(arrive)
    injector.attach_receiver(arrive)
    send = (
        injector.multicast
        if direction == "forward"
        else lambda packet: injector.unicast_feedback(packet)
    )
    for index, payload in enumerate(PAYLOADS):
        packet = DataPacket(index, 0, payload, 0, checksum_of(payload))
        sim.schedule(float(index), lambda packet=packet: send(packet))
    sim.run()
    return arrivals, dict(network.stats.injected)


@pytest.mark.parametrize("direction", ("forward", "backward"))
def test_injector_verdicts_equal_fault_schedule(direction):
    arrivals, injected = simulate(FaultPlan(**{direction: PLAN}), direction)
    expected = ruled(direction)
    assert [(index, payload) for index, _, payload in arrivals] == [
        (index, payload) for index, _, payload in expected
    ]
    assert [time for _, time, _ in arrivals] == pytest.approx(
        [index + LATENCY + delay for index, delay, _ in expected]
    )
    # every fault is counted under the proxy's names
    schedule = FaultSchedule(PLAN, direction)
    verdicts = [schedule.decide(len(payload)) for payload in PAYLOADS]
    survivors = [v for v in verdicts if not v.drop]
    assert injected == {
        key: count
        for key, count in {
            f"{direction}.dropped": N - len(survivors),
            f"{direction}.corrupted": sum(
                v.corrupt_at is not None for v in survivors
            ),
            f"{direction}.duplicated": sum(v.duplicate for v in survivors),
            f"{direction}.delayed": sum(
                (1 + v.duplicate) for v in survivors if v.delay > 0
            ),
        }.items()
        if count
    }


def test_windows_absorb_without_drawing_a_verdict():
    # datagrams absorbed by a member window or a blackout draw nothing:
    # the verdicts of the rest are the schedule's first ones, in order
    blackout = (10.0 + LATENCY, 20.0 + LATENCY)
    plan = FaultPlan(
        forward=dataclasses.replace(PLAN, blackouts=(blackout,)),
        down=(((50.0, 60.0 + LATENCY),),),
    )
    arrivals, injected = simulate(plan, "forward")
    assert injected["forward.blackout"] == 10
    assert injected["forward.member_blackout"] == 10
    kept = [i for i in range(N) if not (10 <= i < 20 or 50 <= i < 60)]
    schedule = FaultSchedule(PLAN, "forward")
    expected = []
    for index in kept:
        verdict = schedule.decide(len(PAYLOADS[index]))
        if not verdict.drop:
            expected += [index] * (1 + verdict.duplicate)
    assert [index for index, _, _ in arrivals] == expected


def test_proxy_delivers_what_the_schedule_rules():
    # the socket executor: the same plan on the proxy's backward leg lets
    # through exactly the datagrams (corrupted bytes, duplicates) that
    # the schedule rules, as a multiset (the OS owns the order)
    plan = dataclasses.replace(PLAN, reorder_delay=0.01, jitter=0.01)

    async def run() -> list[bytes]:
        loop = asyncio.get_running_loop()
        received: list[bytes] = []

        class Sink(asyncio.DatagramProtocol):
            def datagram_received(self, data, addr):
                received.append(data)

        sink, _ = await loop.create_datagram_endpoint(
            Sink, local_addr=("127.0.0.1", 0)
        )
        proxy = ChaosProxy(sink.get_extra_info("sockname")[:2], backward=plan)
        await proxy.start()
        client, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, remote_addr=proxy.address
        )
        for payload in PAYLOADS:
            client.sendto(payload)
            await asyncio.sleep(0.001)
        expected = len(ruled("backward", plan))
        for _ in range(200):
            if len(received) >= expected:
                break
            await asyncio.sleep(0.01)
        client.close()
        await proxy.close()
        sink.close()
        return received

    received = asyncio.run(run())
    assert Counter(received) == Counter(
        payload for _, _, payload in ruled("backward", plan)
    )
