"""Typed errors must survive pickling with diagnostics intact.

A typed error that arrives without its ``StallReport`` is a diagnosis
lost when it crosses a process boundary as a pickle.  Each taxonomy
member is round-tripped.
"""

import pickle

import pytest

from repro.resilience import (
    ChaosPlan,
    DeliveryCorrupt,
    FaultPlan,
    TransferError,
    TransferStalled,
    TransferTimeout,
)
from repro.resilience.report import ReceiverStall, StallReport


def sample_stall_report(seed: int = 0) -> StallReport:
    """A small but fully-populated stall report."""
    return StallReport(
        protocol="np",
        sim_time=12.5,
        events_dispatched=4096,
        pending_events=3,
        receivers=(
            ReceiverStall(
                receiver_id=1,
                missing_groups=(2, 5),
                last_progress_time=11.0,
                watchdog_retries=4,
                watchdog_exhaustions=1,
                crashes=0,
            ),
        ),
        abandoned_groups=(5,),
        injected_faults={"forward.corrupted": 3, "forward.blackout": 7},
        seed=seed,
        fault_plan=FaultPlan(forward=ChaosPlan(seed=seed, corrupt=0.01)),
    )


class TestPickleRoundTrip:
    @pytest.mark.parametrize(
        "error_cls", [TransferError, TransferTimeout, TransferStalled, DeliveryCorrupt]
    )
    def test_report_survives_pickling(self, error_cls):
        report = sample_stall_report(seed=7)
        error = error_cls("it broke", report)
        rebuilt = pickle.loads(pickle.dumps(error))
        assert type(rebuilt) is error_cls
        assert rebuilt.report == report
        assert rebuilt.message == "it broke"
        # the summary is appended exactly once on reconstruction
        assert str(rebuilt) == str(error)
        assert str(rebuilt).count("reproduce with rng=7") == 1

    @pytest.mark.parametrize(
        "error_cls", [TransferError, TransferTimeout, TransferStalled, DeliveryCorrupt]
    )
    def test_reportless_error_pickles(self, error_cls):
        rebuilt = pickle.loads(pickle.dumps(error_cls("bare")))
        assert type(rebuilt) is error_cls
        assert rebuilt.report is None
        assert str(rebuilt) == "bare"

    def test_double_pickle_is_stable(self):
        error = TransferStalled("x", sample_stall_report())
        once = pickle.loads(pickle.dumps(error))
        twice = pickle.loads(pickle.dumps(once))
        assert str(twice) == str(error)
        assert twice.report == error.report
