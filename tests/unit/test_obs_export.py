"""Unit tests for the OpenMetrics / NDJSON exporters (`repro.obs.export`).

The contract under test is **losslessness of the one file format**:
whatever a :class:`MetricRegistry` snapshot holds — including
multi-hundred-digit exact histogram sums — survives an
``export_metrics`` → ``read_telemetry`` round trip and a delta → merge
reconstruction bit-for-bit.  OpenMetrics text is render-only; its golden
checks pin what outside scrapers see.
"""

import json

import pytest

from repro import obs
from repro.obs.export import (
    TelemetryFlusher,
    read_telemetry,
    snapshot_delta,
    to_openmetrics,
)
from repro.obs.metrics import MetricRegistry, MetricsSnapshot


def fixed_registry() -> MetricRegistry:
    """A registry exercising every instrument type and label edge."""
    registry = MetricRegistry()
    registry.counter("net.frames_tx", kind="data").inc(41)
    registry.counter("net.frames_tx", kind="parity").inc(7)
    registry.counter("transfer.naks_sent").inc(3)
    registry.gauge("net.goodput_bytes_per_s").observe(125000.5)
    registry.gauge("queue.low_water", mode="min").observe(4.0)
    registry.gauge("never.observed")  # value None: no sample line
    hist = registry.histogram("transfer.completion_time")
    for value in (0.002, 0.017, 0.3, 4.5):
        hist.observe(value)
    # labels with exposition-hostile characters
    registry.counter("odd.labels", path='a"b\\c', note="line\nbreak").inc(2)
    return registry


class TestGoldenRender:
    def test_fixed_registry_renders_exactly(self):
        """The rendered text is pinned: any change to the exposition
        format is a deliberate, reviewed change to this golden."""
        registry = MetricRegistry()
        registry.counter("net.frames_tx", kind="data").inc(41)
        registry.gauge("net.goodput_bytes_per_s").observe(2048.0)
        text = to_openmetrics(registry.snapshot())
        assert text == (
            "# TYPE repro_net_frames_tx counter\n"
            "# HELP repro_net_frames_tx repro instrument net.frames_tx\n"
            'repro_net_frames_tx_total{kind="data"} 41\n'
            "# TYPE repro_net_goodput_bytes_per_s gauge\n"
            "# HELP repro_net_goodput_bytes_per_s repro instrument "
            "net.goodput_bytes_per_s\n"
            "repro_net_goodput_bytes_per_s 2048.0\n"
            "# EOF\n"
        )

    def test_histogram_buckets_are_cumulative_ending_in_inf(self):
        registry = MetricRegistry()
        hist = registry.histogram("h", bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 1.7, 9.0):
            hist.observe(value)
        text = to_openmetrics(registry.snapshot())
        assert text == (
            "# TYPE repro_h histogram\n"
            "# HELP repro_h repro instrument h\n"
            'repro_h_bucket{le="1.0"} 1\n'
            'repro_h_bucket{le="2.0"} 3\n'
            'repro_h_bucket{le="+Inf"} 4\n'
            "repro_h_sum 12.7\n"
            "repro_h_count 4\n"
            "# EOF\n"
        )

    def test_render_ends_with_eof(self):
        assert to_openmetrics(MetricsSnapshot()).endswith("# EOF\n")

    def test_histogram_sum_renders_without_overflow(self):
        """The exact scaled sum is a >10**300 integer; rendering must go
        through exact fixed-point unscaling, not float(int)."""
        registry = MetricRegistry()
        registry.histogram("h", bounds=(1.0,)).observe(3.5)
        text = to_openmetrics(registry.snapshot())
        assert "repro_h_sum 3.5" in text


class TestRoundTrip:
    def test_fixed_registry_round_trips_bit_identically(self, tmp_path):
        """A ``--metrics-out`` file folds back to the very snapshot that
        wrote it — every instrument kind, histograms included."""
        snapshot = fixed_registry().snapshot()
        kinds = {entry["type"] for entry in snapshot._entries.values()}
        assert kinds == {"counter", "gauge", "histogram"}
        path = tmp_path / "metrics.ndjson"
        assert obs.export_metrics(path, snapshot) == len(snapshot)
        rebuilt, alerts = read_telemetry(path)
        assert rebuilt._entries == snapshot._entries
        assert alerts == []

    def test_foreign_prometheus_text_is_tolerated(self, tmp_path):
        """Lines that are not JSON rows (say, Prometheus text pasted into
        a metrics file) are skipped, not fatal."""
        path = tmp_path / "metrics.ndjson"
        obs.export_metrics(path, fixed_registry().snapshot())
        with open(path, "a") as fh:
            fh.write("# TYPE up gauge\nup 1\nsome_counter_total 5\n# EOF\n")
        rebuilt, alerts = read_telemetry(path)
        assert rebuilt == fixed_registry().snapshot()
        assert alerts == []

    def test_export_rows_are_one_flusher_flush(self, tmp_path):
        snapshot = fixed_registry().snapshot()
        obs.export_metrics(tmp_path / "export.ndjson", snapshot)
        flusher = TelemetryFlusher(
            tmp_path / "flush.ndjson", source=lambda: snapshot
        )
        flusher.close()
        assert (tmp_path / "export.ndjson").read_text() == (
            tmp_path / "flush.ndjson"
        ).read_text()


class TestSnapshotDelta:
    def test_unchanged_instruments_emit_nothing(self):
        registry = fixed_registry()
        first = registry.snapshot()
        assert snapshot_delta(first, registry.snapshot())._entries == {}

    def test_counter_delta_is_the_difference(self):
        registry = MetricRegistry()
        counter = registry.counter("c")
        counter.inc(10)
        first = registry.snapshot()
        counter.inc(5)
        delta = snapshot_delta(first, registry.snapshot())
        assert delta._entries[("c", ())]["value"] == 5

    def test_merging_deltas_reconstructs_the_final_snapshot(self):
        registry = MetricRegistry()
        deltas = []
        previous = MetricsSnapshot()
        for step in range(4):
            registry.counter("c").inc(step + 1)
            registry.gauge("g").observe(float(step))
            registry.histogram("h", bounds=(1.0, 10.0)).observe(step * 0.7)
            current = registry.snapshot()
            deltas.append(snapshot_delta(previous, current))
            previous = current
        rebuilt = MetricRegistry()
        for delta in reversed(deltas):  # any order
            rebuilt.merge_snapshot(delta)
        assert rebuilt.snapshot()._entries == registry.snapshot()._entries

    def test_backwards_counter_raises(self):
        a = MetricRegistry()
        a.counter("c").inc(5)
        b = MetricRegistry()
        b.counter("c").inc(2)
        with pytest.raises(ValueError):
            snapshot_delta(a.snapshot(), b.snapshot())


class TestTelemetryFlusher:
    def test_interval_gates_flushes(self, tmp_path):
        clock = iter([0.0, 0.0, 1.0, 6.0, 6.0]).__next__
        registry = MetricRegistry()
        flusher = TelemetryFlusher(
            tmp_path / "t.ndjson",
            interval=5.0,
            source=registry.snapshot,
            clock=clock,
        )
        registry.counter("c").inc()
        assert flusher.maybe_flush() == 1  # first flush always runs
        registry.counter("c").inc()
        assert flusher.maybe_flush() == 0  # 1.0s < interval
        assert flusher.maybe_flush() == 1  # 6.0s: due again
        assert flusher.seq == 2

    def test_zero_line_flush_when_nothing_changed(self, tmp_path):
        registry = MetricRegistry()
        registry.counter("c").inc()
        flusher = TelemetryFlusher(
            tmp_path / "t.ndjson", interval=0.0, source=registry.snapshot
        )
        assert flusher.flush() == 1
        assert flusher.flush() == 0  # unchanged: no bytes written
        flusher.close()

    def test_read_telemetry_reconstructs_exactly(self, tmp_path):
        registry = MetricRegistry()
        path = tmp_path / "t.ndjson"
        flusher = TelemetryFlusher(path, interval=0.0, source=registry.snapshot)
        for step in range(3):
            registry.counter("c", step=str(step % 2)).inc(step + 1)
            registry.histogram("h").observe(step * 0.1)
            flusher.flush()
        flusher.close()
        snapshot, alerts = read_telemetry(path)
        assert snapshot._entries == registry.snapshot()._entries
        assert alerts == []

    def test_torn_tail_is_tolerated(self, tmp_path):
        registry = MetricRegistry()
        registry.counter("c").inc(3)
        path = tmp_path / "t.ndjson"
        flusher = TelemetryFlusher(path, interval=0.0, source=registry.snapshot)
        flusher.flush()
        flusher.close()
        with open(path, "a") as fh:
            fh.write('{"record": "metric", "name": "c", "ty')  # torn
        snapshot, _ = read_telemetry(path)
        assert snapshot.counter_values()[("c", ())] == 3

    def test_close_is_idempotent_and_final_flushes(self, tmp_path):
        registry = MetricRegistry()
        registry.counter("c").inc()
        path = tmp_path / "t.ndjson"
        flusher = TelemetryFlusher(path, interval=999.0, source=registry.snapshot)
        flusher.close()
        flusher.close()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["name"] for row in rows] == ["c"]
