"""Unit tests for the ``watch`` dashboard's metrics source.

``MetricsSource`` reads exactly one format: the snapshot's own JSON
entries, scraped from an endpoint's ``/metrics.json`` or folded from an
NDJSON metrics file.  Whatever goes wrong between polls — the endpoint
answers 404, serves a body that is not a snapshot, or disappears — the
source keeps the previous snapshot and the frame says it is stale; a
poll never raises.
"""

import http.server
import json
import threading

import pytest

from repro import obs
from repro.experiments.watch import MetricsSource, main, render_dashboard
from repro.obs import MetricRegistry, MetricsSnapshot
from repro.obs.httpd import MetricsEndpoint


def sample_snapshot() -> MetricsSnapshot:
    registry = MetricRegistry()
    registry.counter("net.frames_tx", kind="data").inc(41)
    registry.gauge("net.goodput_bytes_per_s").observe(2048.0)
    registry.histogram("transfer.completion_time").observe(0.25)
    return registry.snapshot()


class ScriptedServer:
    """A loopback HTTP server whose next reply the test sets."""

    def __init__(self) -> None:
        self.reply = (200, b"{}")
        scripted = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server naming
                status, body = scripted.reply
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.hostport = f"{host}:{port}"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10.0)


@pytest.fixture
def scripted():
    server = ScriptedServer()
    try:
        yield server
    finally:
        server.close()


class TestSpec:
    @pytest.mark.parametrize(
        "spec",
        [
            "127.0.0.1:9464",
            "http://127.0.0.1:9464",
            "http://127.0.0.1:9464/",
            "http://127.0.0.1:9464/metrics",
            "http://127.0.0.1:9464/metrics.json",
        ],
    )
    def test_every_endpoint_spelling_scrapes_metrics_json(self, spec):
        source = MetricsSource(spec)
        assert source.url == "http://127.0.0.1:9464/metrics.json"
        assert source.path is None

    def test_anything_else_is_a_file(self, tmp_path):
        source = MetricsSource(str(tmp_path / "metrics.ndjson"))
        assert source.url is None


class TestPoll:
    def test_live_endpoint_scrape_is_exact(self):
        snapshot = sample_snapshot()
        endpoint = MetricsEndpoint(provider=lambda: snapshot)
        host, port = endpoint.start_in_thread()
        try:
            polled, alerts = MetricsSource(f"{host}:{port}").poll()
        finally:
            endpoint.stop_in_thread()
        assert polled == snapshot
        assert alerts == []

    def test_metrics_out_file_is_exact(self, tmp_path):
        snapshot = sample_snapshot()
        path = tmp_path / "metrics.ndjson"
        obs.export_metrics(path, snapshot)
        polled, _ = MetricsSource(str(path)).poll()
        assert polled == snapshot

    @pytest.mark.parametrize(
        "reply",
        [
            (404, b"not found\n"),
            (200, b"# TYPE up gauge\nup 1\n# EOF\n"),  # OpenMetrics, not JSON
            (200, b"[1, 2, 3]"),  # JSON, but not a snapshot
            (200, b'{"instruments": [{"type": "counter"}]}'),  # no name
        ],
        ids=["404", "non-json", "json-list", "bad-entry"],
    )
    def test_bad_reply_keeps_the_previous_snapshot(self, scripted, reply):
        snapshot = sample_snapshot()
        scripted.reply = (200, json.dumps(snapshot.to_json()).encode())
        source = MetricsSource(scripted.hostport)
        first, _ = source.poll()
        assert first == snapshot and source.last_error is None

        scripted.reply = reply
        stale, _ = source.poll()
        assert stale == snapshot
        assert source.last_error
        frame = render_dashboard(
            stale, first, 1.0, source_error=source.last_error
        )
        assert "[metrics source stale: " in frame

        # the endpoint recovers: the next poll is fresh again
        scripted.reply = (200, json.dumps(snapshot.to_json()).encode())
        source.poll()
        assert source.last_error is None

    def test_watch_renders_a_stale_frame_and_exits_zero(self, scripted, capsys):
        scripted.reply = (404, b"not found\n")
        code = main(
            ["--metrics", scripted.hostport, "--count", "1", "--interval", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[metrics source stale: HTTPError" in out
