#!/usr/bin/env python3
"""Chaos study: what does it take to break a transfer, and how does it fail?

Runs a matrix of seeded fault plans — packet corruption, duplication,
reordering jitter, downstream partitions, receiver crashes, sender stalls
and feedback blackouts — against the NP, layered and N2 protocol stacks,
and tabulates how each run ended:

* ``ok``        — bit-exact delivery at every receiver;
* ``degraded``  — completed by ejecting receivers under the round cap
  (partial delivery, explicitly reported);
* ``stalled`` / ``timeout`` — a typed failure whose StallReport names the
  stragglers, their missing groups and the faults injected.

Every outcome is reproducible from the printed ``(rng, plan seed)`` pair.

Usage::

    python examples/chaos_study.py [--plans 8] [--receivers 5]
"""

import argparse

from repro import FaultPlan, NPConfig, TransferStalled, TransferTimeout, run_transfer
from repro.sim.loss import BernoulliLoss

PAYLOAD = bytes(range(256)) * 24


def hardened_config() -> NPConfig:
    """Liveness armour: watchdog with bounded backoff, round cap, eject."""
    return NPConfig(
        k=4, h=4, packet_size=64, packet_interval=0.005, slot_time=0.02,
        nak_watchdog=0.3, watchdog_retry_limit=12, max_rounds=60,
    )


def run_one(protocol: str, plan: FaultPlan, rng_seed: int) -> tuple[str, str]:
    """Returns (outcome, detail) for one chaos transfer."""
    try:
        report = run_transfer(
            protocol, PAYLOAD, BernoulliLoss(5, 0.05), hardened_config(),
            rng=rng_seed, fault_plan=plan, max_sim_time=400.0,
        )
    except TransferTimeout as error:
        return "timeout", f"{len(error.report.receivers)} stragglers"
    except TransferStalled as error:
        return "stalled", f"{len(error.report.receivers)} stragglers"
    section = report.resilience
    if section.degraded:
        return (
            "degraded",
            f"ejected {list(section.ejected_receivers)}, "
            f"abandoned TGs {list(section.abandoned_groups)}",
        )
    fought = []
    if section.corrupt_discarded:
        fought.append(f"{section.corrupt_discarded} corrupt demoted")
    if section.watchdog_retries:
        fought.append(f"{section.watchdog_retries} watchdog retries")
    if section.crashes:
        fought.append(f"{section.crashes} crash survived")
    return "ok", "; ".join(fought) or "clean"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plans", type=int, default=8)
    parser.add_argument("--receivers", type=int, default=5)
    parser.add_argument("--intensity", type=float, default=1.0)
    args = parser.parse_args()

    print(f"{'plan':>4} {'protocol':>9} {'outcome':>9}  detail")
    print("-" * 72)
    for seed in range(args.plans):
        plan = FaultPlan.random(
            seed, args.receivers, horizon=4.0, intensity=args.intensity,
        )
        for protocol in ("np", "layered", "n2"):
            crash_safe = protocol == "np"  # only NP re-solicits on rejoin
            effective = plan if crash_safe else FaultPlan.random(
                seed, args.receivers, horizon=4.0,
                intensity=args.intensity, include_crashes=False,
            )
            outcome, detail = run_one(protocol, effective, 10_000 + seed)
            print(f"{seed:>4} {protocol:>9} {outcome:>9}  {detail}")
        print(f"     faults: {plan.describe()}")


if __name__ == "__main__":
    main()
