"""Unit tests for the obs metric instruments and snapshot merging.

The load-bearing contract is *exactness*: counter, gauge and histogram
snapshots merge with integer arithmetic only, so any partition of the
same observations produces bit-identical merged state — the same
invariance `StreamingMoments` guarantees for the Monte-Carlo layer.
"""

import json

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    MetricsSnapshot,
    labels_key,
)


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_max_mode_keeps_peak(self):
        gauge = Gauge(mode="max")
        assert gauge.value is None
        for value in (3.0, 7.5, 2.0):
            gauge.observe(value)
        assert gauge.value == 7.5

    def test_min_mode_keeps_floor(self):
        gauge = Gauge(mode="min")
        for value in (3.0, 7.5, 2.0):
            gauge.observe(value)
        assert gauge.value == 2.0

    def test_only_commutative_modes_allowed(self):
        # "last" would make merge order-dependent; it must not exist
        with pytest.raises(ValueError):
            Gauge(mode="last")


class TestHistogram:
    def test_bucketing_and_exact_sum(self):
        hist = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == 56.0
        assert hist.mean == 14.0
        assert hist.min == 0.5 and hist.max == 50.0

    def test_boundary_value_falls_in_upper_bucket(self):
        hist = Histogram(bounds=(1.0,))
        hist.observe(1.0)
        assert hist.counts == [0, 1]

    def test_sum_is_exact_not_float_accumulated(self):
        # classic float-summation trap: 0.1 added ten times
        hist = Histogram(bounds=(1.0,))
        for _ in range(10):
            hist.observe(0.1)
        # the fixed-point integer sum recovers the true rational total
        assert hist.sum == pytest.approx(1.0, abs=1e-15)
        assert hist.count == 10

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(10.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricRegistry()
        a = registry.counter("packets", protocol="np")
        b = registry.counter("packets", protocol="np")
        assert a is b
        a.inc(3)
        assert b.value == 3

    def test_label_order_is_irrelevant(self):
        registry = MetricRegistry()
        a = registry.counter("c", x=1, y=2)
        b = registry.counter("c", y=2, x=1)
        assert a is b

    def test_distinct_labels_distinct_instruments(self):
        registry = MetricRegistry()
        a = registry.counter("c", kind="data")
        b = registry.counter("c", kind="parity")
        assert a is not b

    def test_kind_mismatch_raises(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_gauge_mode_mismatch_raises(self):
        registry = MetricRegistry()
        registry.gauge("g", mode="max")
        with pytest.raises(ValueError):
            registry.gauge("g", mode="min")

    def test_histogram_bounds_mismatch_raises(self):
        registry = MetricRegistry()
        registry.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", bounds=(1.0, 3.0))


def _sample_snapshot(scale=1):
    registry = MetricRegistry()
    registry.counter("packets", protocol="np").inc(7 * scale)
    registry.counter("naks").inc(2 * scale)
    registry.gauge("peak", mode="max").observe(3.5 * scale)
    hist = registry.histogram("latency", bounds=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.5, 5.0):
        hist.observe(value * scale)
    return registry.snapshot()


class TestSnapshotMerge:
    def test_merge_is_commutative(self):
        a, b = _sample_snapshot(1), _sample_snapshot(3)
        assert a.merge(b) == b.merge(a)

    def test_merge_is_pure(self):
        a, b = _sample_snapshot(1), _sample_snapshot(3)
        before = a.to_json()
        a.merge(b)
        assert a.to_json() == before

    def test_merge_adds_counters(self):
        merged = _sample_snapshot(1).merge(_sample_snapshot(3))
        assert merged.value("packets", protocol="np") == 7 + 21
        assert merged.value("naks") == 2 + 6

    def test_merge_all_empty(self):
        merged = MetricsSnapshot.merge_all([])
        assert merged.counter_values() == {}

    def test_counter_values_subset(self):
        values = _sample_snapshot().counter_values()
        assert values[("packets", labels_key({"protocol": "np"}))] == 7
        assert values[("naks", ())] == 2
        # gauges and histograms are not counters
        assert all(name in ("packets", "naks") for name, _ in values)

    def test_json_round_trip_bit_identical(self):
        snap = _sample_snapshot()
        clone = MetricsSnapshot.from_json(snap.to_json())
        assert clone == snap
        assert clone.to_json() == snap.to_json()

    def test_json_survives_string_transport(self):
        # big fixed-point integers travel as strings through real JSON
        snap = _sample_snapshot()
        wire = json.dumps(snap.to_json())
        clone = MetricsSnapshot.from_json(json.loads(wire))
        assert clone == snap


class TestExport:
    def test_ndjson_records(self, tmp_path):
        """``--metrics-out`` rows carry the exact entry state: the
        histogram sum stays the fixed-point decimal string."""
        from repro import obs

        path = tmp_path / "metrics.ndjson"
        snapshot = _sample_snapshot()
        written = obs.export_metrics(path, snapshot)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert written == len(lines) == 4
        assert all(line["record"] == "metric" for line in lines)
        by_name = {line["name"]: line for line in lines}
        assert by_name["packets"]["value"] == 7
        assert by_name["packets"]["labels"] == {"protocol": "np"}
        assert by_name["latency"]["count"] == 4
        assert by_name["latency"]["sum"] == (
            snapshot._entries[("latency", ())]["sum"]
        )
        assert obs.read_telemetry(path) == snapshot
