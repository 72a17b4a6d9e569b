"""Unit tests for span tracing and the obs runtime switch."""

import json

import pytest

from repro import obs
from repro.obs import Span, SpanRecorder, TimerSpan


class TestSpanRecorder:
    def test_nesting_depth_and_parent(self):
        recorder = SpanRecorder()
        with Span("outer", recorder, {}):
            with Span("inner", recorder, {"k": 7}):
                pass
        inner, outer = recorder.records
        # inner finishes (and is recorded) first
        assert inner.name == "inner" and inner.depth == 1
        assert inner.parent == "outer"
        assert outer.name == "outer" and outer.depth == 0
        assert outer.parent is None
        assert outer.duration >= inner.duration >= 0.0

    def test_capacity_drops_not_grows(self):
        recorder = SpanRecorder(capacity=2)
        for _ in range(5):
            with Span("s", recorder, {}):
                pass
        assert len(recorder) == 2
        assert recorder.dropped == 3
        assert recorder.summary()["dropped"] == 3

    def test_exception_annotates_and_reraises(self):
        recorder = SpanRecorder()
        with pytest.raises(RuntimeError):
            with Span("doomed", recorder, {"k": 7}):
                raise RuntimeError("boom")
        (record,) = recorder.records
        assert record.attrs["error"] == "RuntimeError"
        assert record.attrs["k"] == 7

    def test_query_and_total_duration(self):
        recorder = SpanRecorder()
        for name in ("a", "b", "a"):
            with Span(name, recorder, {}):
                pass
        assert len(recorder.query("a")) == 2
        assert recorder.total_duration("a") >= 0.0

    def test_ndjson_export(self, tmp_path):
        recorder = SpanRecorder()
        with Span("encode", recorder, {"k": 7, "odd": object()}):
            pass
        path = tmp_path / "spans.ndjson"
        assert recorder.to_ndjson(path) == 1
        (line,) = [json.loads(l) for l in path.read_text().splitlines()]
        assert line["record"] == "span"
        assert line["name"] == "encode"
        assert line["attrs"]["k"] == 7
        # non-scalar attrs degrade to repr, never break the export
        assert isinstance(line["attrs"]["odd"], str)
        assert line["duration"] == pytest.approx(line["end"] - line["start"])


class TestRuntime:
    def test_disabled_span_is_bare_timer(self):
        with obs.capture(enabled=False):
            span = obs.span("x", k=7)
            assert isinstance(span, TimerSpan)
            with span as timer:
                pass
            assert timer.elapsed >= 0.0
            assert len(obs.recorder()) == 0

    def test_enabled_span_records_and_feeds_histogram(self):
        with obs.capture() as registry:
            with obs.span("decode", k=7):
                pass
            assert len(obs.recorder()) == 1
            hist = registry.histogram("span.duration_seconds", span="decode")
            assert hist.count == 1

    def test_capture_restores_prior_state(self):
        assert not obs.is_enabled()
        before = obs.registry()
        with obs.capture():
            assert obs.is_enabled()
            obs.counter("temp").inc()
        assert not obs.is_enabled()
        assert obs.registry() is before

    def test_snapshot_round_trips_through_merge(self):
        with obs.capture() as registry:
            obs.counter("c", kind="data").inc(5)
            snap = obs.snapshot()
        with obs.capture():
            obs.merge_snapshot(snap)
            obs.merge_snapshot(snap)
            assert obs.snapshot().value("c", kind="data") == 10

    def test_export_metrics_writes_ndjson_whatever_the_suffix(self, tmp_path):
        with obs.capture():
            obs.counter("c").inc()
            # 2 rows: "c" plus the always-present obs.spans_dropped
            # health counter every export path carries (DESIGN.md §17)
            assert obs.export_metrics(tmp_path / "m.ndjson") == 2
            assert obs.export_metrics(tmp_path / "m.csv") == 2
        text = (tmp_path / "m.ndjson").read_text()
        rows = [json.loads(line) for line in text.splitlines()]
        assert all(row["record"] == "metric" for row in rows)
        assert {row["name"] for row in rows} == {"c", "obs.spans_dropped"}
        assert (tmp_path / "m.csv").read_text() == text

    def test_export_spans(self, tmp_path):
        with obs.capture():
            with obs.span("s"):
                pass
            assert obs.export_spans(tmp_path / "s.ndjson") == 1


class TestTraceInterop:
    def test_trace_and_span_share_one_file(self, tmp_path):
        """Satellite: simulator traces and obs spans interleave in one
        NDJSON file via the shared ``record`` discriminator."""
        import numpy as np

        from repro.protocols.packets import DataPacket, Nak
        from repro.sim.engine import Simulator
        from repro.sim.loss import BernoulliLoss
        from repro.sim.network import MulticastNetwork
        from repro.sim.trace import TraceRecorder

        sim = Simulator()
        network = MulticastNetwork(
            sim, BernoulliLoss(1, 0.0), np.random.default_rng(0)
        )
        network.attach_sender(lambda p: None)
        network.attach_receiver(lambda p: None)
        recorder = TraceRecorder(sim)
        recorder.attach(network)
        network.multicast(DataPacket(tg=0, index=3, payload=b"abc"))
        network.multicast_feedback(Nak(0, 2, 1), origin=0, kind="nak")

        path = tmp_path / "mixed.ndjson"
        with obs.capture():
            with obs.span("transfer"):
                pass
            n_spans = obs.export_spans(path)
        n_traces = recorder.to_ndjson(path, mode="a")
        assert n_spans == 1 and n_traces == 2
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert {line["record"] for line in lines} == {"span", "trace"}
        data_line = next(
            l for l in lines
            if l["record"] == "trace" and l["channel"] == "downstream"
        )
        packet = data_line["packet"]
        assert packet["packet_type"] == "DataPacket"
        assert packet["tg"] == 0 and packet["index"] == 3
        # payload bytes are summarised, never embedded
        assert packet["payload"] == {"bytes": 3, "crc32": packet["payload"]["crc32"]}
