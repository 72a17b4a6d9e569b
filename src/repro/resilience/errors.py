"""Typed transfer failures — every liveness or integrity failure is one of
these, and every one carries a :class:`~repro.resilience.report.StallReport`.

The taxonomy the harness raises:

* :class:`TransferTimeout` — the simulated clock crossed ``max_sim_time``
  with receivers still incomplete (the transfer was *making* progress, or
  at least still had events queued, but ran out of time budget).
* :class:`TransferStalled` — the event queue drained, the event budget was
  exhausted, or the sender tripped its round cap under the ``"error"``
  degradation policy, with receivers still incomplete: a liveness failure.
* :class:`DeliveryCorrupt` — a receiver reassembled different bytes than
  were sent: an integrity failure (should be unreachable while per-packet
  checksums demote corruption to erasure).

All subclass :class:`TransferError`, itself a ``RuntimeError`` so existing
``except RuntimeError`` callers keep working.

**Pickling** preserves the attached :class:`StallReport`, and with it the
replay ``(seed, fault_plan)`` pair: a typed error raised in a spawned
worker arrives in the parent with its diagnosis intact (``__reduce__``
rebuilds from the pre-summary message + report, so the summary is not
appended twice).
"""

from __future__ import annotations

from repro.resilience.report import StallReport

__all__ = [
    "TransferError",
    "TransferTimeout",
    "TransferStalled",
    "DeliveryCorrupt",
]


class TransferError(RuntimeError):
    """Base class for typed transfer failures; carries a diagnosis."""

    def __init__(self, message: str, report: StallReport | None = None):
        #: the caller's message *before* the report summary is appended —
        #: what ``__reduce__`` persists, so reconstruction (which
        #: re-appends the summary) stays idempotent
        self.message = message
        if report is not None:
            message = f"{message}\n{report.summary()}"
        super().__init__(message)
        self.report = report

    def __reduce__(self):
        # default RuntimeError pickling would rebuild from ``args`` alone,
        # losing ``report``; rebuild from (pre-summary message, report)
        return (self.__class__, (self.message, self.report))


class TransferTimeout(TransferError):
    """``max_sim_time`` elapsed with receivers still incomplete."""


class TransferStalled(TransferError):
    """The transfer can make no further progress (liveness failure)."""


class DeliveryCorrupt(TransferError):
    """A receiver reassembled bytes that differ from the payload sent."""
