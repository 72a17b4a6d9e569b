"""Resilience layer: fault injection, typed failures, degradation reports.

Built for one guarantee, stated in DESIGN.md's fault-model section: every
transfer either completes with intact bytes or degrades along a
documented, diagnosable path — never hangs, never silently corrupts.

* :mod:`repro.resilience.faults` — the one fault vocabulary of the
  simulator and the socket proxy: :class:`ChaosPlan` (one direction's
  per-datagram rates and blackouts), :class:`FaultSchedule` (the
  per-datagram verdict), and :class:`FaultPlan` / :class:`FaultInjector`,
  which add per-receiver down windows, receiver crashes and sender stalls
  on top of any loss model.
* :mod:`repro.resilience.errors` — the error taxonomy raised by
  :func:`repro.protocols.harness.run_transfer`.
* :mod:`repro.resilience.report` — :class:`StallReport` diagnostics and
  the :class:`ResilienceSummary` section of a transfer report.
"""

from repro.resilience.errors import (
    DeliveryCorrupt,
    TransferError,
    TransferStalled,
    TransferTimeout,
)
from repro.resilience.faults import (
    ChaosPlan,
    FaultDecision,
    FaultInjector,
    FaultPlan,
    FaultSchedule,
    ReceiverCrash,
)
from repro.resilience.report import ReceiverStall, ResilienceSummary, StallReport

__all__ = [
    "ChaosPlan",
    "FaultDecision",
    "FaultSchedule",
    "FaultPlan",
    "FaultInjector",
    "ReceiverCrash",
    "TransferError",
    "TransferTimeout",
    "TransferStalled",
    "DeliveryCorrupt",
    "StallReport",
    "ReceiverStall",
    "ResilienceSummary",
]
