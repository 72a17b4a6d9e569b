"""Unit tests for the metrics pull endpoint (`repro.obs.httpd`).

The endpoint is exercised in thread-host mode (the supervisor's mount)
with real HTTP requests over loopback; the asyncio-host mode is covered
end-to-end by the net integration tests.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.httpd import MetricsEndpoint
from repro.obs.metrics import MetricRegistry, MetricsSnapshot


@pytest.fixture
def endpoint():
    registry = MetricRegistry()
    registry.counter("net.frames_tx", kind="data").inc(5)
    registry.gauge("net.goodput_bytes_per_s").observe(1000.0)
    server = MetricsEndpoint(provider=registry.snapshot)
    host, port = server.start_in_thread()
    try:
        yield server, registry, f"http://{host}:{port}"
    finally:
        server.stop_in_thread()


def fetch(url):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.headers, response.read().decode()


class TestRoutes:
    def test_metrics_serves_openmetrics(self, endpoint):
        server, registry, base = endpoint
        status, headers, body = fetch(base + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("application/openmetrics-text")
        assert "# TYPE repro_net_frames_tx counter\n" in body
        assert 'repro_net_frames_tx_total{kind="data"} 5\n' in body
        assert "repro_net_goodput_bytes_per_s 1000.0\n" in body
        assert body.endswith("# EOF\n")

    def test_metrics_reflects_live_mutation(self, endpoint):
        server, registry, base = endpoint
        registry.counter("net.frames_tx", kind="data").inc(7)
        _, _, body = fetch(base + "/metrics.json")
        values = MetricsSnapshot.from_json(json.loads(body)).counter_values()
        assert values[("net.frames_tx", (("kind", "data"),))] == 12

    def test_metrics_json(self, endpoint):
        server, registry, base = endpoint
        status, headers, body = fetch(base + "/metrics.json")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        document = json.loads(body)
        assert {e["name"] for e in document["instruments"]} == {
            "net.frames_tx",
            "net.goodput_bytes_per_s",
        }
        # the scrape folds back to exactly the served snapshot
        assert MetricsSnapshot.from_json(document) == registry.snapshot()

    def test_healthz(self, endpoint):
        _, _, base = endpoint
        status, _, body = fetch(base + "/healthz")
        assert (status, body) == (200, "ok\n")

    def test_unknown_path_404(self, endpoint):
        _, _, base = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(base + "/nope")
        assert excinfo.value.code == 404

    def test_non_get_405(self, endpoint):
        _, _, base = endpoint
        request = urllib.request.Request(base + "/metrics", data=b"x")  # POST
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        assert excinfo.value.code == 405


class TestLifecycle:
    def test_start_in_thread_twice_rejected(self, endpoint):
        server, _, _ = endpoint
        with pytest.raises(RuntimeError):
            server.start_in_thread()

    def test_stop_in_thread_idempotent_and_closes_port(self):
        registry = MetricRegistry()
        server = MetricsEndpoint(provider=registry.snapshot)
        host, port = server.start_in_thread()
        server.stop_in_thread()
        server.stop_in_thread()
        with pytest.raises((urllib.error.URLError, OSError)):
            urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=1.0
            )

    def test_provider_failure_degrades_to_empty(self):
        def exploding():
            raise RuntimeError("dictionary changed size during iteration")

        server = MetricsEndpoint(provider=exploding)
        host, port = server.start_in_thread()
        try:
            status, _, body = fetch(f"http://{host}:{port}/metrics")
            assert status == 200
            assert body == "# EOF\n"
        finally:
            server.stop_in_thread()
