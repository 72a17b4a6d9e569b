"""Chaos property tests: every transfer ends well-defined, whatever we break.

The resilience contract (DESIGN.md): under any seeded
:class:`~repro.resilience.FaultPlan` — corruption, duplication, jitter,
partitions, feedback blackouts, receiver crashes, sender stalls, on top of
ordinary loss — a transfer either

* completes with bit-exact bytes at every (non-ejected) receiver, or
* completes *degraded*, naming the ejected receivers and abandoned groups
  on ``TransferReport.resilience``, or
* raises a typed error carrying a :class:`StallReport` that names the
  stragglers and reproduces from ``(seed, fault_plan)``.

It must never hang, never deliver silently corrupted bytes, and never fail
with an undiagnosable bare exception.
"""

import dataclasses

import pytest

from repro.protocols.harness import run_transfer
from repro.protocols.np_protocol import NPConfig
from repro.resilience import (
    ChaosPlan,
    FaultPlan,
    ReceiverCrash,
    TransferError,
    TransferStalled,
    TransferTimeout,
)
from repro.sim.loss import BernoulliLoss

PAYLOAD = bytes(range(256)) * 24  # ~6 KB -> 24 groups at k=4/64B

N_RECEIVERS = 5
MAX_SIM_TIME = 400.0

#: (chaos-seed, protocol) matrix: 30 randomized runs, >= 25 required
CHAOS_CASES = [
    (seed, ("np", "layered", "n2")[seed % 3]) for seed in range(30)
]


def chaos_config(protocol: str, **overrides) -> NPConfig:
    """Hardened config: watchdog for liveness, round cap for termination."""
    defaults = dict(
        k=4, h=4, packet_size=64, packet_interval=0.005, slot_time=0.02,
        nak_watchdog=0.3, watchdog_retry_limit=12, max_rounds=60,
    )
    defaults.update(overrides)
    return NPConfig(**defaults)


def run_chaos(seed: int, protocol: str, plan: FaultPlan):
    """One chaos transfer; returns (report_or_None, error_or_None)."""
    config = chaos_config(protocol)
    try:
        report = run_transfer(
            protocol, PAYLOAD, BernoulliLoss(N_RECEIVERS, 0.05), config,
            rng=10_000 + seed, fault_plan=plan, max_sim_time=MAX_SIM_TIME,
        )
        return report, None
    except TransferError as error:
        return None, error


class TestChaosMatrix:
    @pytest.mark.parametrize("seed,protocol", CHAOS_CASES)
    def test_every_outcome_is_well_defined(self, seed, protocol):
        # crashes only where a rejoin path exists (NP's watchdog re-solicits)
        plan = FaultPlan.random(
            seed, N_RECEIVERS, horizon=4.0,
            include_crashes=(protocol == "np"),
        )
        report, error = run_chaos(seed, protocol, plan)
        if error is not None:
            # typed, diagnosable failure: the report names the stragglers
            # and carries everything needed to replay the run
            assert isinstance(error, (TransferStalled, TransferTimeout))
            assert error.report is not None
            assert error.report.fault_plan == plan
            assert error.report.seed == 10_000 + seed
            assert error.report.receivers
            for stall in error.report.receivers:
                assert stall.missing_groups
            assert "receivers incomplete" in str(error)
        else:
            # bit-exact delivery at every non-ejected receiver (the harness
            # raises DeliveryCorrupt otherwise); degradation is explicit
            assert report.verified
            if report.resilience.degraded:
                assert report.resilience.ejected_receivers
                assert report.resilience.abandoned_groups
            assert report.resilience.fault_plan == plan

    def test_chaos_outcomes_reproduce_from_seed_and_plan(self):
        # pick a seed with a non-trivial plan and replay it
        seed, protocol = 7, "np"
        plan = FaultPlan.random(seed, N_RECEIVERS, horizon=4.0)
        assert not plan.is_noop
        first = run_chaos(seed, protocol, plan)
        second = run_chaos(seed, protocol, plan)
        if first[0] is not None:
            assert second[0] is not None
            assert first[0] == second[0]
        else:
            assert second[1] is not None
            assert type(first[1]) is type(second[1])
            assert str(first[1]) == str(second[1])

    def test_corruption_recovers_and_is_accounted(self):
        plan = FaultPlan(forward=ChaosPlan(seed=3, corrupt=0.08))
        report, error = run_chaos(50, "np", plan)
        assert error is None
        assert report.verified
        assert report.resilience.injected.get("forward.corrupted", 0) > 0
        # every detected corruption was demoted to an erasure and repaired
        assert (
            report.resilience.corrupt_discarded
            == report.resilience.injected["forward.corrupted"]
        )

    def test_crash_and_rejoin_recovers_via_watchdog(self):
        plan = FaultPlan(
            crashes=(ReceiverCrash(receiver=2, at=0.08, downtime=0.3),)
        )
        report, error = run_chaos(51, "np", plan)
        assert error is None
        assert report.verified
        assert report.resilience.crashes == 1
        assert report.resilience.injected.get("crashes") == 1


class TestFeedbackBlackout:
    def test_permanent_blackout_terminates_as_typed_stall(self):
        # the sender is deaf forever: receivers watchdog-NAK with growing
        # backoff until the retry budget runs dry, then the run terminates
        # as a diagnosed stall — never a hang, never a bare exception
        plan = FaultPlan(
            backward=ChaosPlan(seed=6, blackouts=((0.0, 1_000_000.0),))
        )
        report, error = run_chaos(52, "np", plan)
        assert report is None
        assert isinstance(error, TransferStalled)
        stall = error.report
        assert stall.injected_faults.get("backward.blackout", 0) > 0
        # the bounded backoff is observable on the per-receiver snapshots
        assert any(r.watchdog_retries > 0 for r in stall.receivers)
        assert any(r.watchdog_exhaustions > 0 for r in stall.receivers)


class TestRoundCapDegradation:
    def heavy_loss(self):
        return BernoulliLoss(4, 0.5)

    def test_eject_policy_completes_degraded(self):
        config = chaos_config("np", h=1, max_rounds=3)
        report = run_transfer(
            "np", PAYLOAD, self.heavy_loss(), config, rng=60,
            max_sim_time=MAX_SIM_TIME,
        )
        # partial delivery is explicit: ejected receivers and the groups
        # the sender gave up on are both named on the report
        assert report.resilience.degraded
        assert report.resilience.ejected_receivers
        assert report.resilience.abandoned_groups
        assert report.verified  # completers (if any) hold exact bytes

    def test_eject_outcome_is_deterministic(self):
        config = chaos_config("np", h=1, max_rounds=3)

        def run():
            return run_transfer(
                "np", PAYLOAD, self.heavy_loss(), config, rng=60,
                max_sim_time=MAX_SIM_TIME,
            )

        a, b = run(), run()
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
