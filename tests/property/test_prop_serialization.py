"""Property tests: JSON round trips for every serializable record type.

A record is only as good as its serializers — a lossy
``to_json``/``from_json`` pair would make "replayable from the record
alone" silently false.  Every such type round-trips to an *equal* object
here, through an actual JSON encode/decode (not just dict copying),
across randomized instances.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.retry import RetryPolicy
from repro.experiments.series import FigureResult, Series
from repro.protocols.harness import TransferReport
from repro.resilience import (
    FaultPlan,
    OutageWindow,
    ReceiverCrash,
    ReceiverStall,
    ResilienceSummary,
    StallReport,
    TransferStalled,
    failure_from_json,
)

finite = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
probs = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
labels = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12
)


def roundtrip(obj, cls):
    """Encode to actual JSON text and back, then rebuild."""
    return cls.from_json(json.loads(json.dumps(obj.to_json())))


outage_windows = st.builds(
    OutageWindow,
    start=finite,
    duration=st.floats(
        min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
    ),
    receivers=st.one_of(
        st.none(), st.lists(st.integers(0, 63), max_size=4).map(tuple)
    ),
)

receiver_crashes = st.builds(
    ReceiverCrash,
    receiver=st.integers(0, 63),
    at=finite,
    downtime=st.floats(
        min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
    ),
)

fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**31),
    corrupt_prob=probs,
    duplicate_prob=probs,
    jitter=finite,
    outages=st.lists(outage_windows, max_size=3).map(tuple),
    feedback_outages=st.lists(outage_windows, max_size=2).map(tuple),
    crashes=st.lists(receiver_crashes, max_size=2).map(tuple),
    sender_stalls=st.lists(outage_windows, max_size=2).map(tuple),
)

receiver_stalls = st.builds(
    ReceiverStall,
    receiver_id=st.integers(0, 1000),
    missing_groups=st.lists(st.integers(0, 500), max_size=6).map(tuple),
    last_progress_time=finite,
    watchdog_retries=st.integers(0, 100),
    watchdog_exhaustions=st.integers(0, 10),
    crashes=st.integers(0, 5),
)

stall_reports = st.builds(
    StallReport,
    protocol=st.sampled_from(["np", "n2", "layered", "fec1", "np-adaptive"]),
    sim_time=finite,
    events_dispatched=st.integers(0, 10**9),
    pending_events=st.integers(0, 10**6),
    receivers=st.lists(receiver_stalls, max_size=3).map(tuple),
    abandoned_groups=st.lists(st.integers(0, 500), max_size=4).map(tuple),
    injected_faults=st.dictionaries(labels, st.integers(0, 1000), max_size=4),
    seed=st.one_of(st.none(), st.integers(0, 2**31)),
    fault_plan=st.one_of(st.none(), fault_plans),
)


class TestFaultPlanRoundTrip:
    @given(plan=fault_plans)
    @settings(max_examples=60, deadline=None)
    def test_fault_plan(self, plan):
        assert roundtrip(plan, FaultPlan) == plan

    @given(seed=st.integers(0, 2**31), n=st.integers(1, 32))
    @settings(max_examples=30, deadline=None)
    def test_random_plan(self, seed, n):
        plan = FaultPlan.random(seed, n)
        assert roundtrip(plan, FaultPlan) == plan


class TestStallReportRoundTrip:
    @given(report=stall_reports)
    @settings(max_examples=60, deadline=None)
    def test_stall_report(self, report):
        assert roundtrip(report, StallReport) == report

    @given(report=stall_reports, message=labels)
    @settings(max_examples=40, deadline=None)
    def test_typed_failure_roundtrip(self, report, message):
        error = TransferStalled(message, report)
        rebuilt = failure_from_json(json.loads(json.dumps(error.to_json())))
        assert type(rebuilt) is TransferStalled
        assert rebuilt.report == report
        assert str(rebuilt) == str(error)


class TestResilienceSummaryRoundTrip:
    @given(
        summary=st.builds(
            ResilienceSummary,
            fault_plan=st.one_of(st.none(), fault_plans),
            injected=st.dictionaries(labels, st.integers(0, 100), max_size=4),
            corrupt_discarded=st.integers(0, 100),
            watchdog_retries=st.integers(0, 100),
            watchdog_backoff_peak=finite,
            crashes=st.integers(0, 10),
            degraded=st.booleans(),
            abandoned_groups=st.lists(st.integers(0, 99), max_size=3).map(tuple),
            ejected_receivers=st.lists(st.integers(0, 99), max_size=3).map(tuple),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_summary(self, summary):
        assert roundtrip(summary, ResilienceSummary) == summary


class TestTransferReportRoundTrip:
    @given(
        seed=st.integers(0, 2**31),
        degraded=st.booleans(),
        plan=st.one_of(st.none(), fault_plans),
    )
    @settings(max_examples=40, deadline=None)
    def test_transfer_report(self, seed, degraded, plan):
        report = TransferReport(
            protocol="np",
            n_receivers=int(seed % 50) + 1,
            n_groups=3,
            total_data_packets=21,
            payload_bytes=4000,
            verified=True,
            completion_time=1.25,
            transmissions_per_packet=1.5,
            data_sent=21,
            parity_sent=7,
            retransmissions_sent=3,
            polls_sent=2,
            naks_received=5,
            naks_sent_total=5,
            naks_suppressed_total=11,
            duplicates_total=1,
            packets_reconstructed_total=6,
            events_dispatched=int(seed % 10**6),
            by_kind={"data": 21, "parity": 7},
            resilience=ResilienceSummary(fault_plan=plan, degraded=degraded),
        )
        assert roundtrip(report, TransferReport) == report

    def test_unknown_keys_are_ignored(self):
        """A journal written by a newer version (extra fields) must still
        deserialize — from_json filters to known dataclass fields."""
        report = TransferReport(
            protocol="np",
            n_receivers=1,
            n_groups=1,
            total_data_packets=7,
            payload_bytes=1000,
            verified=True,
            completion_time=0.5,
            transmissions_per_packet=1.0,
            data_sent=7,
            parity_sent=0,
            retransmissions_sent=0,
            polls_sent=0,
            naks_received=0,
            naks_sent_total=0,
            naks_suppressed_total=0,
            duplicates_total=0,
            packets_reconstructed_total=0,
            events_dispatched=42,
        )
        data = report.to_json()
        data["a_field_from_the_future"] = {"nested": True}
        assert TransferReport.from_json(data) == report


class TestFigureResultRoundTrip:
    @given(
        figure_id=labels,
        data=st.lists(
            st.tuples(
                labels,
                st.lists(
                    st.tuples(finite, finite), min_size=1, max_size=6
                ),
                st.booleans(),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_figure_result(self, figure_id, data):
        series = []
        for label, points, with_errors in data:
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            errors = [0.1] * len(points) if with_errors else None
            series.append(Series(label, xs, ys, errors))
        figure = FigureResult(
            figure_id=figure_id,
            title="t",
            x_label="x",
            y_label="y",
            series=series,
            notes="n",
        )
        assert roundtrip(figure, FigureResult) == figure


class TestRetryPolicyRoundTrip:
    @given(
        retries=st.integers(0, 10),
        base=probs,
        backoff=st.floats(
            min_value=1.0, max_value=8.0, allow_nan=False, allow_infinity=False
        ),
        max_delay=finite,
        jitter=probs,
    )
    @settings(max_examples=40, deadline=None)
    def test_retry_policy(self, retries, base, backoff, max_delay, jitter):
        policy = RetryPolicy(
            retries=retries,
            base_delay=base,
            backoff=backoff,
            max_delay=max_delay,
            jitter=jitter,
        )
        assert roundtrip(policy, RetryPolicy) == policy
