"""Unit tests for the drift SLOs (`repro.obs.slo`).

The SLOs compare live counters against the paper's closed forms; these
tests feed hand-built snapshots so observed/predicted/breached behaviour
is checked without running a transfer.
"""

import json
import math

import pytest

from repro import obs
from repro.analysis.integrated import expected_transmissions_lower_bound
from repro.obs.export import TelemetryFlusher, read_telemetry
from repro.obs.metrics import MetricRegistry
from repro.obs.slo import (
    DriftAlert,
    DriftMonitor,
    EmDriftSLO,
    GoodputDriftSLO,
)


def transfer_snapshot(data=100, parity=12, retrans=3, packets=100):
    registry = MetricRegistry()
    registry.counter("transfer.data_sent", protocol="np").inc(data)
    registry.counter("transfer.parity_sent", protocol="np").inc(parity)
    registry.counter("transfer.retransmissions_sent", protocol="np").inc(retrans)
    registry.counter("transfer.data_packets", protocol="np").inc(packets)
    return registry.snapshot()


def net_snapshot(data=40, parity=8, baseline=40, goodput=None):
    registry = MetricRegistry()
    registry.counter("net.frames_tx", kind="data").inc(data)
    registry.counter("net.frames_tx", kind="parity").inc(parity)
    registry.counter("net.stream_data_tx").inc(baseline)
    if goodput is not None:
        registry.gauge("net.goodput_bytes_per_s").observe(goodput)
    return registry.snapshot()


class TestEmDriftSLO:
    def test_transfer_source_observed_ratio(self):
        slo = EmDriftSLO(k=7, p=0.01, n_receivers=100, protocol="np")
        assert slo.name == "em[transfer:np]"
        observed = slo.observed(transfer_snapshot(100, 12, 3, 100))
        assert observed == pytest.approx(115 / 100)

    def test_net_source_observed_ratio(self):
        slo = EmDriftSLO(k=7, p=0.0, n_receivers=1, source="net")
        assert slo.name == "em[net]"
        assert slo.observed(net_snapshot(40, 8, 40)) == pytest.approx(48 / 40)

    def test_predicted_matches_closed_form(self):
        slo = EmDriftSLO(k=7, p=0.05, n_receivers=1000)
        assert slo.predicted() == pytest.approx(
            expected_transmissions_lower_bound(7, 0.05, 1000)
        )

    def test_warmup_returns_none(self):
        slo = EmDriftSLO(k=7, p=0.01, n_receivers=10)
        assert slo.evaluate(MetricRegistry().snapshot()) is None

    def test_zero_baseline_returns_none(self):
        slo = EmDriftSLO(k=7, p=0.0, n_receivers=1, source="net")
        assert slo.evaluate(net_snapshot(0, 0, 0)) is None

    def test_within_tolerance_is_not_breached(self):
        # p=0 predicts E[M] = 1.0 exactly; observed 48/40 = 1.2
        slo = EmDriftSLO(k=7, p=0.0, n_receivers=1, source="net", tolerance=0.25)
        alert = slo.evaluate(net_snapshot(40, 8, 40))
        assert alert is not None and not alert.breached
        assert alert.ratio == pytest.approx(1.2)

    def test_outside_tolerance_breaches(self):
        slo = EmDriftSLO(k=7, p=0.0, n_receivers=1, source="net", tolerance=0.1)
        alert = slo.evaluate(net_snapshot(80, 20, 40))
        assert alert is not None and alert.breached

    def test_validation(self):
        with pytest.raises(ValueError):
            EmDriftSLO(k=7, p=0.01, n_receivers=10, source="disk")
        with pytest.raises(ValueError):
            EmDriftSLO(k=7, p=1.0, n_receivers=10)


class TestGoodputDriftSLO:
    def test_warmup_returns_none(self):
        slo = GoodputDriftSLO(k=7, p=0.01, n_receivers=1, packet_size=1024)
        assert slo.evaluate(MetricRegistry().snapshot()) is None
        assert slo.evaluate(net_snapshot()) is None  # gauge never observed

    def test_observed_reads_the_gauge(self):
        slo = GoodputDriftSLO(k=7, p=0.01, n_receivers=1, packet_size=1024)
        assert slo.observed(net_snapshot(goodput=250000.0)) == 250000.0

    def test_alert_shape(self):
        slo = GoodputDriftSLO(
            k=7, p=0.01, n_receivers=1, packet_size=1024, tolerance=10.0
        )
        alert = slo.evaluate(net_snapshot(goodput=125000.0))
        assert alert is not None
        assert alert.slo == "goodput[net]"
        assert alert.predicted > 0
        assert alert.context["packet_size"] == 1024


class TestDriftAlert:
    def test_json_round_trip(self):
        alert = DriftAlert(
            slo="em[net]",
            observed=1.2,
            predicted=1.0,
            ratio=1.2,
            tolerance=0.25,
            breached=False,
            context={"k": 7},
        )
        row = alert.to_json()
        assert row["record"] == "alert"
        assert json.loads(json.dumps(row)) == row
        fields = {k: v for k, v in row.items() if k != "record"}
        assert DriftAlert(**fields) == alert

    def test_describe_flags_breaches(self):
        alert = DriftAlert("em[net]", 2.0, 1.0, 2.0, 0.25, True)
        assert "BREACH" in alert.describe()
        ok = DriftAlert("em[net]", 1.0, 1.0, 1.0, 0.25, False)
        assert "[ok]" in ok.describe()

    def test_zero_prediction_breaches_with_infinite_ratio(self):
        slo = EmDriftSLO(k=7, p=0.0, n_receivers=1, source="net")
        slo._predicted = 0.0  # force a degenerate model
        alert = slo.evaluate(net_snapshot(40, 8, 40))
        assert alert.breached and math.isinf(alert.ratio)


class TestDriftMonitor:
    def test_publishes_gauges_only_when_runtime_enabled(self):
        monitor = DriftMonitor(
            [EmDriftSLO(k=7, p=0.0, n_receivers=1, source="net")]
        )
        snapshot = net_snapshot(40, 8, 40)
        with obs.capture(enabled=False):
            alerts = monitor.evaluate(snapshot)  # runtime disabled
            assert len(alerts) == 1
            assert obs.snapshot()._entries == {}
        with obs.capture():
            monitor.evaluate(snapshot)
            published = obs.snapshot()
            gauges = {
                entry["name"]
                for entry in published.to_json()["instruments"]
                if entry["type"] == "gauge"
            }
            assert gauges == {"slo.observed", "slo.predicted", "slo.ratio"}
            value = published.value("slo.ratio", slo="em[net]")
            assert value == pytest.approx(1.2)

    def test_last_alerts_replaced_each_evaluation(self):
        monitor = DriftMonitor(
            [EmDriftSLO(k=7, p=0.0, n_receivers=1, source="net")]
        )
        with obs.capture():
            monitor.evaluate(net_snapshot(40, 8, 40))
            assert len(monitor.last_alerts) == 1
            monitor.evaluate(MetricRegistry().snapshot())
            assert monitor.last_alerts == []


class TestReadAlerts:
    """Alert rows come back through the one telemetry reader."""

    def test_flusher_persists_only_breaches(self, tmp_path):
        registry = MetricRegistry()
        registry.counter("net.frames_tx", kind="data").inc(80)
        registry.counter("net.frames_tx", kind="parity").inc(20)
        registry.counter("net.stream_data_tx").inc(40)
        monitor = DriftMonitor(
            [EmDriftSLO(k=7, p=0.0, n_receivers=1, source="net", tolerance=0.1)]
        )
        path = tmp_path / "telemetry.ndjson"
        with obs.capture():
            flusher = TelemetryFlusher(
                path, interval=0.0, monitor=monitor, source=registry.snapshot
            )
            flusher.close()
        _, alerts = read_telemetry(path)
        assert [row["slo"] for row in alerts] == ["em[net]"]
        assert alerts[0]["breached"]
        assert alerts[0]["observed"] == pytest.approx(2.5)

    def test_skips_torn_and_malformed_rows(self, tmp_path):
        path = tmp_path / "telemetry.ndjson"
        good = DriftAlert("em[net]", 2.0, 1.0, 2.0, 0.25, True).to_json()
        path.write_text(
            json.dumps(good)
            + "\n"
            + '{"record": "metric", "name": "c"}\n'  # missing fields
            + '{"record": "alert", "slo"'  # torn tail
        )
        snapshot, alerts = read_telemetry(path)
        assert [row["slo"] for row in alerts] == ["em[net]"]
        assert len(snapshot) == 0

    def test_missing_file_is_empty(self, tmp_path):
        snapshot, alerts = read_telemetry(tmp_path / "nope.ndjson")
        assert alerts == [] and len(snapshot) == 0
