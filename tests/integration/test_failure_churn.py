"""Acceptance soak: seeded Weibull rack outages over the simulator.

The correlated-churn contract end-to-end: one pinned seed produces one
rack-wide outage long enough to trip the round cap, the transfer
completes *degraded* with that rack's receivers named per-domain, every
surviving receiver holds bit-identical payload, and replaying the seed
reproduces the outage schedule, the retry counters and the obs counter
subset exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.protocols.harness import run_transfer
from repro.protocols.np_protocol import NPConfig
from repro.resilience import FaultPlan
from repro.resilience.errors import TransferStalled
from repro.sim.failure import (
    DomainOutageLoss,
    DomainTree,
    TraceAvailability,
    WeibullAvailability,
    member_down_windows,
)
from repro.sim.loss import BernoulliLoss

pytestmark = pytest.mark.timeout(180)

#: pinned world: under this seed exactly one rack (site1/rack0) stays
#: down past the round cap while the other three racks recover
SOAK_SEED = 2
PAYLOAD = np.random.default_rng(1).bytes(24 * 4 * 64)


def soak_world():
    tree = DomainTree(8, branching=(2, 2))
    generator = WeibullAvailability(
        seed=SOAK_SEED, horizon=12.0,
        up_shape=1.5, up_scale=2.0, down_shape=0.9, down_scale=5.0,
    )
    return tree, generator


def soak_config() -> NPConfig:
    return NPConfig(
        k=4, h=2, packet_size=64, packet_interval=0.005, slot_time=0.02,
        nak_watchdog=0.3, watchdog_retry_limit=8, max_rounds=6,
    )


def run_soak():
    tree, generator = soak_world()
    model = DomainOutageLoss(BernoulliLoss(8, 0.01), tree, generator)
    return run_transfer(
        "np", PAYLOAD, model, config=soak_config(), rng=SOAK_SEED,
        max_sim_time=100.0,
    )


class TestRackOutageSoak:
    def test_one_rack_ejected_survivors_verified(self):
        report = run_soak()
        resilience = report.resilience
        assert resilience.degraded
        # the outage is attributed to its leaf domain, nothing else
        assert resilience.ejected_by_domain == {"site1/rack0": (4, 5)}
        assert resilience.ejected_receivers == (4, 5)
        # every receiver outside the dead rack reassembled exact bytes
        assert report.verified
        assert report.resilience.abandoned_groups

    def test_same_seed_reproduces_everything(self):
        runs = []
        for _ in range(2):
            with obs.capture():
                report = run_soak()
                snap = obs.snapshot()
            runs.append(
                (
                    dataclasses.asdict(report),
                    snap.value("churn.windows", generator="weibull"),
                    snap.value(
                        "churn.ejected", protocol="np", domain="site1/rack0"
                    ),
                )
            )
        # full report equality covers E[M], NAK and watchdog retry
        # counts, the ejection set and the resilience section
        assert runs[0] == runs[1]
        assert runs[0][2] == 2  # both rack members ejected

    def test_same_seed_reproduces_outage_schedule(self):
        tree, first = soak_world()
        _, second = soak_world()
        for leaf in tree.leaves:
            assert first.schedule_for(leaf) == second.schedule_for(leaf)


class TestCrashChurnReplay:
    """Crash-mode churn: same schedule drives the fault plan, replayably."""

    def world(self):
        tree = DomainTree(8, branching=(2, 2))
        generator = WeibullAvailability(
            seed=11, horizon=40.0,
            up_shape=1.5, up_scale=4.0, down_shape=0.9, down_scale=0.4,
        )
        return tree, generator

    def config(self):
        return NPConfig(
            k=4, h=8, packet_size=64, packet_interval=0.005, slot_time=0.02,
            nak_watchdog=0.3, watchdog_retry_limit=12, max_rounds=60,
        )

    def run_once(self):
        tree, generator = self.world()
        plan = FaultPlan(
            crashes=member_down_windows(generator, 8, tree=tree, mode="crash")
        )
        return run_transfer(
            "np", PAYLOAD, BernoulliLoss(8, 0.01), config=self.config(),
            rng=3, fault_plan=plan, domains=tree, max_sim_time=200.0,
        )

    def test_crashes_survived_and_counted(self):
        with obs.capture():
            report = self.run_once()
            snap = obs.snapshot()
        assert report.verified
        assert report.resilience.crashes > 0
        assert (
            snap.value("transfer.crashes", protocol="np")
            == report.resilience.crashes
        )
        assert (
            snap.value(
                "churn.receivers_affected", generator="weibull", mode="crash"
            )
            == 8
        )

    def test_replay_is_bit_identical(self):
        first, second = self.run_once(), self.run_once()
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_layered_partition_stalls_typed_with_domain(self):
        # layered RM is NAK-watchdog-free by design: a partition spanning
        # a group's poll round is unrecoverable.  The contract is not
        # completion but a *typed* stall that names the partitioned rack
        # — deterministically
        tree = DomainTree(8, branching=(2, 2))
        trace = TraceAvailability(
            {"site1/rack0": [(0.1, 0.3)]}, horizon=2.0
        )
        plan = FaultPlan(down=member_down_windows(trace, 8, tree=tree))

        def run_once():
            with pytest.raises(TransferStalled) as excinfo:
                run_transfer(
                    "layered", PAYLOAD, BernoulliLoss(8, 0.01),
                    config=self.config(), rng=3, fault_plan=plan,
                    domains=tree, max_sim_time=200.0,
                )
            return excinfo.value.report

        first, second = run_once(), run_once()
        assert set(first.stalled_by_domain) == {"site1/rack0"}
        assert first.stalled_by_domain["site1/rack0"] == (4, 5)
        assert first.injected_faults.get("forward.member_blackout", 0) > 0
        assert dataclasses.asdict(first) == dataclasses.asdict(second)
