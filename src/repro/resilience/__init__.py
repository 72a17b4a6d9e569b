"""Resilience layer: fault injection, typed failures, degradation reports.

Built for one guarantee, stated in DESIGN.md's fault-model section: every
transfer either completes with intact bytes or degrades along a
documented, diagnosable path — never hangs, never silently corrupts.

* :mod:`repro.resilience.faults` — :class:`FaultPlan` /
  :class:`FaultInjector`: seeded, deterministic packet corruption,
  duplication, reordering, partitions, receiver crashes and sender stalls
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
    FaultInjector,
    FaultPlan,
    OutageWindow,
    ReceiverCrash,
)
from repro.resilience.report import ReceiverStall, ResilienceSummary, StallReport

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "OutageWindow",
    "ReceiverCrash",
    "TransferError",
    "TransferTimeout",
    "TransferStalled",
    "DeliveryCorrupt",
    "StallReport",
    "ReceiverStall",
    "ResilienceSummary",
]
