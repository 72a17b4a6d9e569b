"""Unit tests for trace ids and trace stitching."""

import json

import pytest

from repro import obs
from repro.obs.tracecontext import (
    TRACE_ID_BYTES,
    export_trace,
    is_trace_id,
    mint_trace_id,
    stitch_traces,
    to_trace_events,
    trace_of,
)


class TestMint:
    def test_deterministic(self):
        assert mint_trace_id("campaign", "c1", "task", 0) == mint_trace_id(
            "campaign", "c1", "task", 0
        )

    def test_distinct_parts_distinct_ids(self):
        ids = {
            mint_trace_id("campaign", "c1", "task", attempt)
            for attempt in range(8)
        }
        assert len(ids) == 8

    def test_separator_prevents_concatenation_collisions(self):
        assert mint_trace_id("ab", "c") != mint_trace_id("a", "bc")

    def test_format(self):
        trace = mint_trace_id("x")
        assert is_trace_id(trace)
        assert len(trace) == 2 * TRACE_ID_BYTES

    def test_needs_at_least_one_part(self):
        with pytest.raises(ValueError):
            mint_trace_id()


class TestIsTraceId:
    @pytest.mark.parametrize(
        "value",
        [None, 42, "ab" * 15, "AB" * 16, "zz" * 16, "ab" * 17],
    )
    def test_rejects(self, value):
        assert not is_trace_id(value)

    def test_accepts(self):
        assert is_trace_id("0123456789abcdef" * 2)


def span_row(name, trace, start, side=None, duration=0.5):
    attrs = {"trace": trace}
    if side is not None:
        attrs["side"] = side
    return {
        "name": name,
        "start": start,
        "duration": duration,
        "depth": 0,
        "attrs": attrs,
    }


class TestStitch:
    def test_groups_by_trace_and_sorts_by_start(self):
        a, b = mint_trace_id("a"), mint_trace_id("b")
        rows = [
            span_row("late", a, 2.0),
            span_row("early", a, 1.0),
            span_row("other", b, 0.0),
            {"name": "untraced", "start": 0.0, "attrs": {}},
        ]
        traces = stitch_traces(rows)
        assert set(traces) == {a, b}
        assert [row["name"] for row in traces[a]] == ["early", "late"]

    def test_trace_of_ignores_malformed(self):
        assert trace_of({"attrs": {"trace": "junk"}}) is None
        trace = mint_trace_id("real")
        assert trace_of(span_row("s", trace, 0.0)) == trace


class TestTraceEvents:
    def test_one_process_per_trace_one_thread_per_side(self):
        trace = mint_trace_id("session")
        rows = [
            span_row("net.serve.session", trace, 0.0, side="sender"),
            span_row("net.fetch", trace, 0.1, side="receiver"),
        ]
        document = to_trace_events(rows)
        events = document["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        assert len([e for e in meta if e["name"] == "thread_name"]) == 2
        assert len(spans) == 2
        assert len({e["pid"] for e in spans}) == 1
        assert len({e["tid"] for e in spans}) == 2  # one per side
        fetch = next(e for e in spans if e["name"] == "net.fetch")
        assert fetch["ts"] == pytest.approx(0.1 * 1e6)
        assert fetch["dur"] == pytest.approx(0.5 * 1e6)

    def test_export_trace_defaults_to_process_recorder(self, tmp_path):
        trace = mint_trace_id("exported")
        path = tmp_path / "trace.json"
        with obs.capture():
            with obs.span("outer", trace=trace):
                with obs.span("inner", trace=trace):
                    pass
            with obs.span("untraced"):
                pass
            assert export_trace(path) == 2
        document = json.loads(path.read_text())
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"outer", "inner"}

    def test_export_trace_with_explicit_records(self, tmp_path):
        trace = mint_trace_id("explicit")
        path = tmp_path / "trace.json"
        count = export_trace(path, [span_row("only", trace, 0.0)])
        assert count == 1
