"""With ``nak_watchdog == 0`` the NP receiver never touches its watchdog.

The watchdog is off by default (the paper assumes lossless feedback), and
then no packet may pay for feeding, cancelling or arming a timer that
cannot exist.  Each of the three watchdog methods is made to raise; a
lossy transfer under corruption, duplication and jitter, and a scripted
group abort, must still run to the end.  With the watchdog on, the same
transfer calls them, so the guard below is not vacuous.
"""

import os

import numpy as np
import pytest

from repro.protocols.harness import run_transfer
from repro.protocols.np_protocol import NPConfig, NPReceiver
from repro.protocols.packets import DataPacket, GroupAbort, Poll
from repro.resilience import ChaosPlan, FaultPlan
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss

WATCHDOG_METHODS = ("_feed_watchdog", "_cancel_watchdog", "_arm_watchdog")
PAYLOAD = os.urandom(4 * 4 * 64)
RATES = ChaosPlan(seed=3, corrupt=0.05, duplicate=0.05, jitter=0.002)
PLAN = FaultPlan(forward=RATES, backward=RATES)


def config(**overrides):
    return NPConfig(
        k=4, h=8, packet_size=64, packet_interval=0.01, slot_time=0.02,
        **overrides,
    )


@pytest.fixture
def calls(monkeypatch):
    """Count every watchdog call; raise on any when ``forbid`` is set."""
    counted = {name: 0 for name in WATCHDOG_METHODS}
    counted["forbid"] = False
    for name in WATCHDOG_METHODS:
        original = getattr(NPReceiver, name)

        def spy(self, *args, name=name, original=original):
            if counted["forbid"]:
                raise AssertionError(f"{name} called with the watchdog off")
            counted[name] += 1
            return original(self, *args)

        monkeypatch.setattr(NPReceiver, name, spy)
    return counted


def test_a_lossy_transfer_never_calls_the_watchdog(calls):
    calls["forbid"] = True
    report = run_transfer(
        "np", PAYLOAD, BernoulliLoss(6, 0.2), config(), rng=11,
        fault_plan=PLAN,
    )
    assert report.verified
    assert report.naks_sent_total > 0
    assert report.resilience.corrupt_discarded > 0
    assert report.duplicates_total > 0


def test_an_abort_never_calls_the_watchdog(calls):
    calls["forbid"] = True

    class Network:
        def attach_receiver(self, handler):
            return 0

        def multicast_feedback(self, packet, origin):
            pass

    sim = Simulator()
    receiver = NPReceiver(
        sim, Network(), 2, config(), rng=np.random.default_rng(1)
    )
    receiver.on_packet(DataPacket(0, 0, bytes(64)))
    receiver.on_packet(Poll(0, 4, 1))
    sim.run()
    receiver.on_packet(GroupAbort(0, 1))
    assert receiver.failed_groups() == (0,)
    assert receiver.stats.groups_failed == 1


def test_with_the_watchdog_on_the_same_transfer_calls_all_three(calls):
    report = run_transfer(
        "np", PAYLOAD, BernoulliLoss(6, 0.2), config(nak_watchdog=1.0),
        rng=11, fault_plan=PLAN,
    )
    assert report.verified
    assert all(calls[name] > 0 for name in WATCHDOG_METHODS)
