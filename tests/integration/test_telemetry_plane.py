"""Integration: the live telemetry plane, end to end.

The acceptance scenarios for the observability PR:

* a loopback net transfer produces sender **and** receiver spans under
  one trace id, and the live counters sit within a pinned tolerance of
  the paper's closed-form ``E[M]``;
* a v1-only peer (no trace-context decoder) interoperates: the transfer
  completes bit-identically, merely untraced, with the unknown frame
  counted — never crashed on;
* a campaign run with the exporters attached serves a live scrape
  endpoint, streams delta NDJSON that folds back to the exact rollup,
  records breached drift SLOs, ships worker spans home, and renders all
  of it through ``watch`` (the live view) and ``--status`` (one shot);
* the merged worker counters are bit-identical between ``--jobs 1`` and
  ``--jobs 4`` runs of the same campaign.
"""

import asyncio
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.campaign import CampaignRunner, callable_task
from repro.campaign.status import campaign_status
from repro.experiments.watch import render_dashboard
from repro.net import NetConfig, NetServer, fetch
from repro.net import wire
from repro.obs import MetricsSnapshot
from repro.obs.export import TelemetryFlusher, read_telemetry, to_openmetrics
from repro.obs.slo import EmDriftSLO
from repro.obs.tracecontext import stitch_traces, to_trace_events

pytestmark = pytest.mark.timeout(300)

HARD_LIMIT = 60.0
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: pinned CI tolerance for the loopback E[M] acceptance check: a clean
#: (loss-free) transfer sends no repair parity, so observed E[M] is 1.0
#: exactly and predicted E[M] at p=0 is 1.0; the slack absorbs a
#: scheduler-induced spurious NAK round on a loaded CI box.
EM_NET_TOLERANCE = 0.25


def run_bounded(coro):
    async def bounded():
        return await asyncio.wait_for(coro, timeout=HARD_LIMIT)

    return asyncio.run(bounded())


def payload(n_groups: int, config: NetConfig, seed: int = 77) -> bytes:
    size = n_groups * config.k * config.packet_size
    return np.random.default_rng(seed).bytes(size)


async def loopback_transfer(data, config, metrics_scrape=False):
    """Serve ``data`` and fetch it once over loopback; returns
    ``(result, scraped /metrics.json snapshot or None)``."""
    server = NetServer(
        data, config, metrics_port=0 if metrics_scrape else None
    )
    host, port = await server.start()
    try:
        result = await fetch(host, port, config=config, deadline=20.0)
        for _ in range(100):  # let the sender session settle its report
            if server.reports:
                break
            await asyncio.sleep(0.05)
        body = None
        if metrics_scrape:
            mhost, mport = server.metrics_address
            reader, writer = await asyncio.open_connection(mhost, mport)
            writer.write(b"GET /metrics.json HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            body = MetricsSnapshot.from_json(
                json.loads(raw.decode().split("\r\n\r\n", 1)[1])
            )
    finally:
        await server.close()
    return result, body


class TestStitchedLoopbackTrace:
    """Acceptance: one trace, both sides, drift within tolerance."""

    def test_sender_and_receiver_stitch_under_one_trace(self):
        config = NetConfig(k=4, h=8, packet_size=256, seed=21)
        data = payload(4, config)
        with obs.capture() as registry:
            result, _ = run_bounded(loopback_transfer(data, config))
            assert result.complete and result.data == data
            records = [record.to_json() for record in obs.recorder()]
            snapshot = registry.snapshot()

        # the receiver learned the sender's trace id off the wire
        assert result.trace_id is not None
        traces = stitch_traces(records)
        spans = traces[result.trace_id]
        names = {row["name"] for row in spans}
        assert "net.fetch" in names
        assert "net.serve.session" in names
        sides = {(row.get("attrs") or {}).get("side") for row in spans}
        assert {"sender", "receiver"} <= sides

        # Perfetto export: both sides are threads of ONE trace process
        document = to_trace_events(records)
        span_events = [
            event for event in document["traceEvents"] if event["ph"] == "X"
        ]
        pids = {event["pid"] for event in span_events}
        assert len(pids) == 1
        tids = {event["tid"] for event in span_events}
        assert len(tids) == 2

        # drift SLO: observed E[M] within the pinned tolerance of the
        # closed form (loss-free loopback, so both sides sit at 1.0)
        slo = EmDriftSLO(
            k=config.k,
            p=0.0,
            n_receivers=1,
            source="net",
            tolerance=EM_NET_TOLERANCE,
        )
        alert = slo.evaluate(snapshot)
        assert alert is not None
        assert not alert.breached
        assert abs(alert.ratio - 1.0) <= EM_NET_TOLERANCE

    def test_same_seed_reruns_mint_the_same_trace(self):
        config = NetConfig(k=2, h=4, packet_size=128, seed=22)
        data = payload(2, config)

        def trace_once():
            with obs.capture():
                result, _ = run_bounded(loopback_transfer(data, config))
                assert result.complete
            return result.trace_id

        assert trace_once() == trace_once()


class TestWireBackCompat:
    """A v1 peer has no type-13 decoder; interop must not regress."""

    def test_v1_only_decoder_completes_untraced(self, monkeypatch):
        class V1Types(dict):
            """decode (`.get`) predates type 13; encode (`[]`) intact."""

            def get(self, key, default=None):
                if key == 13:
                    return default
                return super().get(key, default)

        monkeypatch.setattr(wire, "_TYPES", V1Types(wire._TYPES))
        config = NetConfig(k=2, h=4, packet_size=128, seed=23)
        data = payload(3, config)
        with obs.capture() as registry:
            result, _ = run_bounded(loopback_transfer(data, config))
            snapshot = registry.snapshot()
        # the transfer is untouched: bit-identical delivery, no trace
        assert result.complete and result.data == data
        assert result.trace_id is None
        # the unfamiliar frame was counted and dropped, not crashed on
        assert snapshot.value("net.frame_errors", reason="unknown_type") >= 1


class TestNetServerScrape:
    def test_mounted_endpoint_serves_live_counters(self):
        config = NetConfig(k=2, h=4, packet_size=128, seed=24)
        data = payload(3, config)
        with obs.capture():
            result, parsed = run_bounded(
                loopback_transfer(data, config, metrics_scrape=True)
            )
        assert result.complete
        assert parsed.value("net.frames_tx", kind="data") == 6
        assert parsed.value("net.sessions", outcome="complete") == 1
        assert ("obs.spans_dropped", ()) in parsed.counter_values()


def forced_breach_slo():
    """An SLO whose prediction (heavy loss, huge fanout) cannot match the
    clean seeded transfer cells — a deterministic breach for the tests."""
    return EmDriftSLO(
        k=32, p=0.9, n_receivers=1000, protocol="np", tolerance=0.25
    )


@pytest.fixture(scope="module")
def telemetry_campaign(tmp_path_factory):
    """One 3-task campaign with the full plane attached: live endpoint,
    NDJSON telemetry, a deliberately-breaching drift SLO."""
    root = tmp_path_factory.mktemp("plane")
    journal = root / "campaign.jsonl"
    telemetry = root / "telemetry.ndjson"
    tasks = [
        callable_task(
            f"cell{seed}",
            "repro.campaign.testing:transfer_cell",
            seed=seed,
            payload_bytes=2048,
        )
        for seed in range(3)
    ]
    scraped = {}

    def scrape_when_live(runner):
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            address = runner.metrics_address
            if address is not None:
                url = f"http://{address[0]}:{address[1]}/metrics.json"
                try:
                    with urllib.request.urlopen(url, timeout=5.0) as response:
                        scraped["body"] = response.read().decode()
                    return
                except OSError:
                    pass
            time.sleep(0.05)

    with obs.capture():  # the CLI path enables obs for the supervisor too
        runner = CampaignRunner(
            tasks,
            jobs=2,
            timeout=120.0,
            journal_path=journal,
            seed=0,
            metrics_port=0,
            telemetry_path=telemetry,
            telemetry_interval=0.0,
            slos=[forced_breach_slo()],
        )
        scraper = threading.Thread(target=scrape_when_live, args=(runner,))
        scraper.start()
        report = runner.run()
        scraper.join(timeout=30.0)
        rollup = runner.telemetry_snapshot()
    assert report.status == "ok"
    return {
        "journal": journal,
        "telemetry": telemetry,
        "runner": runner,
        "report": report,
        "rollup": rollup,
        "scraped": scraped,
    }


class TestCampaignTelemetryPlane:
    def test_live_scrape_succeeded_while_running(self, telemetry_campaign):
        body = telemetry_campaign["scraped"].get("body")
        assert body is not None, "endpoint never became scrapable"
        parsed = MetricsSnapshot.from_json(json.loads(body))
        # live scrape races the run, but whatever it saw must fold into a
        # snapshot and be a subset of the final rollup's instruments
        final = {name for name, _ in telemetry_campaign["rollup"]._entries}
        assert {name for name, _ in parsed._entries} <= final
        assert telemetry_campaign["runner"].metrics_address is None  # closed

    def test_ndjson_stream_folds_back_to_the_exact_rollup(
        self, telemetry_campaign
    ):
        snapshot, alert_rows = read_telemetry(telemetry_campaign["telemetry"])
        assert (
            snapshot.counter_values()
            == telemetry_campaign["rollup"].counter_values()
        )
        assert any(row.get("breached") for row in alert_rows)
        # worker transfer counters made it through the whole pipe
        merged = telemetry_campaign["runner"].worker_metrics.counter_values()
        assert any(name.startswith("transfer.") for name, _ in merged)
        assert ("obs.spans_dropped", ()) in merged

    def test_breached_slo_lands_in_alerts_and_status(self, telemetry_campaign):
        snapshot, alerts = read_telemetry(telemetry_campaign["telemetry"])
        assert alerts and all(row["slo"] == "em[transfer:np]" for row in alerts)
        assert any(row["breached"] for row in alerts)
        status = campaign_status(telemetry_campaign["journal"])
        rendered = render_dashboard(
            snapshot, MetricsSnapshot(), 0.0, alerts=alerts, status=status
        )
        assert "ALERT:      em[transfer:np]" in rendered
        assert "succeeded=3" in rendered

    def test_worker_spans_ship_home_stamped_with_their_trace(
        self, telemetry_campaign
    ):
        spans = telemetry_campaign["runner"].worker_spans
        assert spans
        traces = stitch_traces(spans)
        assert len(traces) == 3  # one trace per task attempt
        for rows in traces.values():
            assert all((row.get("attrs") or {}).get("trace") for row in rows)

    def test_journal_records_carry_the_trace(self, telemetry_campaign):
        import json

        rows = [
            json.loads(line)
            for line in telemetry_campaign["journal"]
            .read_text()
            .splitlines()
        ]
        starts = [row for row in rows if row.get("type") == "task_start"]
        successes = [row for row in rows if row.get("type") == "task_success"]
        assert starts and all(row.get("trace") for row in starts)
        assert successes and all(
            row.get("trace", {}).get("spans") for row in successes
        )

    def test_resume_preloads_shipped_spans(self, telemetry_campaign):
        with obs.capture(enabled=False):
            resumed = CampaignRunner.resume(telemetry_campaign["journal"])
            resumed.run()  # all tasks already succeeded: pure replay
        original = telemetry_campaign["runner"]
        assert len(resumed.worker_spans) == len(original.worker_spans)
        assert stitch_traces(resumed.worker_spans).keys() == stitch_traces(
            original.worker_spans
        ).keys()


class TestExporterJobsInvariance:
    def test_counter_values_bit_identical(self):
        def counters(jobs):
            tasks = [
                callable_task(
                    f"cell{seed}",
                    "repro.campaign.testing:transfer_cell",
                    seed=seed,
                    payload_bytes=2048,
                )
                for seed in range(4)
            ]
            runner = CampaignRunner(
                tasks, jobs=jobs, timeout=120.0, seed=0, capture_metrics=True
            )
            report = runner.run()
            assert report.status == "ok"
            return runner.worker_metrics.counter_values()

        serial, parallel = counters(1), counters(4)
        assert serial == parallel
        assert any(name == "transfer.data_sent" for name, _ in serial)


class TestSpansDroppedSurfacing:
    def test_dropped_spans_reach_every_export_path(self, tmp_path):
        from repro.obs import runtime
        from repro.obs.spans import SpanRecorder

        path = tmp_path / "telemetry.ndjson"
        with obs.capture():
            # shrink the recorder; capture() restores the real one on exit
            runtime._recorder = SpanRecorder(capacity=2)
            for _ in range(5):
                with obs.span("overflow.unit"):
                    pass
            snapshot = obs.snapshot()
            text = to_openmetrics(snapshot)
            flusher = TelemetryFlusher(path, interval=0.0)
            flusher.close()
            obs.export_metrics(tmp_path / "metrics.ndjson")
        assert snapshot.value("obs.spans_dropped") == 3
        assert "repro_obs_spans_dropped_total 3" in text
        for written in (path, tmp_path / "metrics.ndjson"):
            rebuilt, _ = read_telemetry(written)
            assert rebuilt.value("obs.spans_dropped") == 3


class TestCliSurface:
    def test_watch_renders_frames_and_exits(self, telemetry_campaign, capsys):
        from repro.experiments.__main__ import main

        code = main(
            [
                "watch",
                "--journal",
                str(telemetry_campaign["journal"]),
                "--metrics",
                str(telemetry_campaign["telemetry"]),
                "--count",
                "2",
                "--interval",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "repro watch" in out
        assert "throughput:" in out
        assert "ALERT:" in out  # the forced breach surfaced
        assert "succeeded=3" in out  # campaign table rode along

    def test_status_is_one_shot(self, telemetry_campaign, capsys):
        from repro.experiments.__main__ import main

        journal = str(telemetry_campaign["journal"])
        assert main(["--status", journal]) == 0
        assert "succeeded=3" in capsys.readouterr().out
        # the live view is `watch`; the figure CLI has no follow mode
        for flag in ("--follow", "--telemetry", "--interval"):
            with pytest.raises(SystemExit) as excinfo:
                main(["--status", journal, flag])
            assert excinfo.value.code == 2
        capsys.readouterr()

    def test_watch_exits_cleanly_on_sigint(self, telemetry_campaign):
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "watch",
                "--journal",
                str(telemetry_campaign["journal"]),
                "--interval",
                "0.2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        try:
            time.sleep(2.0)
            process.send_signal(signal.SIGINT)
            out, err = process.communicate(timeout=20)
        except Exception:
            process.kill()
            raise
        assert process.returncode == 0, err.decode()
        assert b"campaign" in out
