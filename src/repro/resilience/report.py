"""Structured diagnostics for transfers that stall, time out or degrade.

Two audiences:

* :class:`StallReport` is attached to every typed transfer failure
  (:mod:`repro.resilience.errors`): a snapshot of per-receiver progress,
  sender round state and injected-fault counters, plus the ``(seed,
  fault_plan)`` pair needed to replay the exact run.  A liveness failure is
  triageable from the exception alone — no debugger required.
* :class:`ResilienceSummary` is the ``resilience`` section of a successful
  (possibly degraded) :class:`repro.protocols.harness.TransferReport`: how
  much the transfer had to fight — corrupt packets demoted to erasures,
  watchdog retries and their backoff, crashes survived, and receivers
  ejected under the round-cap degradation policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.resilience.faults import FaultPlan

__all__ = ["ReceiverStall", "StallReport", "ResilienceSummary"]


@dataclass(frozen=True)
class ReceiverStall:
    """Progress snapshot of one receiver that did not finish."""

    receiver_id: int
    #: transmission groups the receiver has not delivered (includes groups
    #: the sender abandoned under the round cap)
    missing_groups: tuple[int, ...]
    #: simulated time of the receiver's last accepted payload packet
    last_progress_time: float
    #: NAK-watchdog retries the receiver spent (all groups)
    watchdog_retries: int
    #: groups whose watchdog retry budget ran dry
    watchdog_exhaustions: int
    #: times the receiver crashed and lost its decoder state
    crashes: int

    def to_json(self) -> dict:
        return {
            "receiver_id": self.receiver_id,
            "missing_groups": list(self.missing_groups),
            "last_progress_time": self.last_progress_time,
            "watchdog_retries": self.watchdog_retries,
            "watchdog_exhaustions": self.watchdog_exhaustions,
            "crashes": self.crashes,
        }

    def summary(self) -> str:
        return (
            f"receiver {self.receiver_id}: missing {len(self.missing_groups)} "
            f"groups {list(self.missing_groups[:8])}"
            f"{'...' if len(self.missing_groups) > 8 else ''}, "
            f"last progress t={self.last_progress_time:.3f}s, "
            f"{self.watchdog_retries} watchdog retries "
            f"({self.watchdog_exhaustions} exhausted), "
            f"{self.crashes} crashes"
        )


@dataclass(frozen=True)
class StallReport:
    """Everything needed to diagnose and reproduce a failed transfer."""

    protocol: str
    sim_time: float
    events_dispatched: int
    pending_events: int
    receivers: tuple[ReceiverStall, ...]
    #: groups the sender abandoned under the per-group round cap
    abandoned_groups: tuple[int, ...] = ()
    #: injected-fault counters from the network (`NetworkStats.injected`)
    injected_faults: dict[str, int] = field(default_factory=dict)
    #: the integer seed passed to ``run_transfer`` (None if a Generator
    #: object was passed — then reproduction needs the caller's generator)
    seed: int | None = None
    #: the fault plan in force (None for a fault-free run)
    fault_plan: "FaultPlan | None" = None
    #: failure-domain path -> stalled receivers under it (empty when the
    #: run had no domain tree attached)
    stalled_by_domain: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def to_json(self) -> dict:
        """Self-contained JSON form: carries the replay ``(seed, plan)``."""
        return {
            "protocol": self.protocol,
            "sim_time": self.sim_time,
            "events_dispatched": self.events_dispatched,
            "pending_events": self.pending_events,
            "receivers": [stall.to_json() for stall in self.receivers],
            "abandoned_groups": list(self.abandoned_groups),
            "injected_faults": dict(self.injected_faults),
            "seed": self.seed,
            "fault_plan": (
                None if self.fault_plan is None else self.fault_plan.to_json()
            ),
            "stalled_by_domain": {
                domain: list(receivers)
                for domain, receivers in self.stalled_by_domain.items()
            },
        }

    def summary(self) -> str:
        lines = [
            f"{self.protocol}: {len(self.receivers)} receivers incomplete "
            f"at t={self.sim_time:.3f}s "
            f"({self.events_dispatched} events dispatched, "
            f"{self.pending_events} pending)",
        ]
        lines.extend("  " + stall.summary() for stall in self.receivers)
        if self.stalled_by_domain:
            lines.append(
                "  stalled by domain: "
                + ", ".join(
                    f"{domain}={list(receivers)}"
                    for domain, receivers in sorted(
                        self.stalled_by_domain.items()
                    )
                )
            )
        if self.abandoned_groups:
            lines.append(f"  abandoned groups: {list(self.abandoned_groups)}")
        if self.injected_faults:
            lines.append(f"  injected faults: {self.injected_faults}")
        if self.seed is not None:
            lines.append(f"  reproduce with rng={self.seed}")
        if self.fault_plan is not None:
            lines.append(f"  fault plan: {self.fault_plan.describe()}")
        return "\n".join(lines)


@dataclass
class ResilienceSummary:
    """The ``resilience`` section of a :class:`TransferReport`."""

    #: the plan in force, None when the fault layer was not engaged
    fault_plan: "FaultPlan | None" = None
    #: injected-fault counters (empty for a fault-free run)
    injected: dict[str, int] = field(default_factory=dict)
    #: corrupted packets detected via checksum and demoted to erasures
    corrupt_discarded: int = 0
    #: total NAK-watchdog retries across receivers
    watchdog_retries: int = 0
    #: largest backoff interval any watchdog reached (seconds)
    watchdog_backoff_peak: float = 0.0
    #: receiver crash/restart cycles survived
    crashes: int = 0
    #: True when the transfer completed only by ejecting receivers
    degraded: bool = False
    abandoned_groups: tuple[int, ...] = ()
    ejected_receivers: tuple[int, ...] = ()
    #: failure-domain path -> ejected receivers under it (empty unless the
    #: transfer ran under a domain tree and degraded)
    ejected_by_domain: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "fault_plan": (
                None if self.fault_plan is None else self.fault_plan.to_json()
            ),
            "injected": dict(self.injected),
            "corrupt_discarded": self.corrupt_discarded,
            "watchdog_retries": self.watchdog_retries,
            "watchdog_backoff_peak": self.watchdog_backoff_peak,
            "crashes": self.crashes,
            "degraded": self.degraded,
            "abandoned_groups": list(self.abandoned_groups),
            "ejected_receivers": list(self.ejected_receivers),
            "ejected_by_domain": {
                domain: list(receivers)
                for domain, receivers in self.ejected_by_domain.items()
            },
        }
