"""Unit tests for the ``--metrics-out`` rows (`repro.obs.export_metrics`).

The contract under test is **losslessness of the one file format**:
whatever a :class:`MetricRegistry` snapshot holds — including
multi-hundred-digit exact histogram sums — survives an
``export_metrics`` → ``read_telemetry`` round trip bit-for-bit.
"""

from repro import obs
from repro.obs.metrics import MetricRegistry


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


class TestRoundTrip:
    def test_fixed_registry_round_trips_bit_identically(self, tmp_path):
        """A ``--metrics-out`` file folds back to the very snapshot that
        wrote it — every instrument kind, histograms included."""
        snapshot = fixed_registry().snapshot()
        kinds = {entry["type"] for entry in snapshot._entries.values()}
        assert kinds == {"counter", "gauge", "histogram"}
        path = tmp_path / "metrics.ndjson"
        assert obs.export_metrics(path, snapshot) == len(snapshot)
        rebuilt = obs.read_telemetry(path)
        assert rebuilt._entries == snapshot._entries

    def test_foreign_prometheus_text_is_tolerated(self, tmp_path):
        """Lines that are not JSON rows (say, Prometheus text pasted into
        a metrics file) are skipped, not fatal."""
        path = tmp_path / "metrics.ndjson"
        obs.export_metrics(path, fixed_registry().snapshot())
        with open(path, "a") as fh:
            fh.write("# TYPE up gauge\nup 1\nsome_counter_total 5\n# EOF\n")
        assert obs.read_telemetry(path) == fixed_registry().snapshot()

    def test_torn_tail_is_tolerated(self, tmp_path):
        registry = MetricRegistry()
        registry.counter("c").inc(3)
        path = tmp_path / "t.ndjson"
        obs.export_metrics(path, registry.snapshot())
        with open(path, "a") as fh:
            fh.write('{"record": "metric", "name": "c", "ty')  # torn
        snapshot = obs.read_telemetry(path)
        assert snapshot.counter_values()[("c", ())] == 3
