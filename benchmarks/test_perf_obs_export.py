"""Exporter-path cost: rendering, zero-line flushes, scraper-attached runs.

Three budgets for the telemetry plane's export surfaces:

* **render throughput** — ``to_openmetrics`` over a realistically-sized
  registry (a few hundred instruments) must render fast enough that a
  per-second scrape is invisible.
* **zero-line flushes** — a `TelemetryFlusher` whose registry did not
  change between flushes must write *nothing* and cost microseconds:
  the delta encoder is what makes an aggressive flush interval safe.
* **scraper-attached transfers** — the acceptance gate: a seeded
  transfer workload with a live pull endpoint being scraped **and** a
  per-run NDJSON flush must stay within 10% of the same workload with
  recording alone.

Run with ``pytest benchmarks/test_perf_obs_export.py``.
"""

from __future__ import annotations

import threading
import time
import urllib.request

from benchmarks._trajectory import record_trajectory
from repro import obs
from repro.obs.export import TelemetryFlusher, to_openmetrics
from repro.obs.httpd import MetricsEndpoint
from repro.obs.metrics import MetricRegistry
from repro.protocols.harness import run_transfer
from repro.protocols.np_protocol import NPConfig
from repro.sim.loss import BernoulliLoss

#: same seeded workload as test_perf_obs_overhead, so the two budget
#: files anchor against comparable transfer times
PAYLOAD = bytes((i * 131) % 251 for i in range(90_000))
CONFIG = NPConfig(k=7, h=8, packet_size=512, packet_interval=0.002)
N_RECEIVERS, LOSS_P = 20, 0.02
REPEATS = 5

SCRAPER_BUDGET = 0.10
#: a realistic-but-aggressive scrape cadence (20 Hz); Prometheus defaults
#: to 1/15 Hz, so this over-stresses the endpoint by ~300x
SCRAPE_INTERVAL = 0.05

RENDER_FLOOR_PER_S = 50.0
NOOP_FLUSH_CEILING_US = 2000.0


def _one_transfer(seed: int = 0):
    report = run_transfer(
        "np", PAYLOAD, BernoulliLoss(N_RECEIVERS, LOSS_P), CONFIG, rng=seed
    )
    assert report.verified
    return report


def _best_time(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _loaded_registry(
    counters: int = 300, gauges: int = 60, histograms: int = 40
) -> MetricRegistry:
    """A registry the size of a busy campaign rollup."""
    registry = MetricRegistry()
    for i in range(counters):
        registry.counter(f"bench.counter_{i % 50}", shard=str(i)).inc(i * 7 + 1)
    for i in range(gauges):
        registry.gauge(f"bench.gauge_{i}").observe(float(i) * 1.5)
    for i in range(histograms):
        hist = registry.histogram(f"bench.hist_{i}")
        for sample in (0.001 * i, 0.1, 2.5):
            hist.observe(sample)
    return registry


class TestRenderThroughput:
    def test_openmetrics_render_rate(self):
        snapshot = _loaded_registry().snapshot()
        text = to_openmetrics(snapshot)

        n = 30
        start = time.perf_counter()
        for _ in range(n):
            to_openmetrics(snapshot)
        render_per_s = n / (time.perf_counter() - start)

        print(
            f"\nrender {render_per_s:.0f}/s "
            f"({len(text)} bytes, {len(snapshot)} instruments)"
        )
        record_trajectory(
            "obs_export",
            {"render_per_s": render_per_s, "exposition_bytes": len(text)},
        )
        assert render_per_s >= RENDER_FLOOR_PER_S


class TestZeroLineFlush:
    def test_unchanged_registry_flushes_nothing_cheaply(self, tmp_path):
        registry = _loaded_registry()
        path = tmp_path / "telemetry.ndjson"
        flusher = TelemetryFlusher(path, interval=0.0, source=registry.snapshot)
        first = flusher.flush()
        assert first == len(registry.snapshot()._entries)
        size_after_first = path.stat().st_size

        n = 50
        start = time.perf_counter()
        for _ in range(n):
            assert flusher.maybe_flush(force=True) == 0
        noop_us = (time.perf_counter() - start) / n * 1e6
        flusher.close()

        print(f"\nno-op flush {noop_us:.1f}us over {first} instruments")
        record_trajectory(
            "obs_export",
            {"noop_flush_us": noop_us, "first_flush_lines": first},
        )
        # the delta encoder proved itself: no bytes written after flush 1
        # (close() adds nothing either — registry never changed)
        assert path.stat().st_size == size_after_first
        assert noop_us <= NOOP_FLUSH_CEILING_US


class TestScraperAttachedOverhead:
    def test_live_scrape_and_flush_within_budget(self, tmp_path):
        with obs.capture():
            _one_transfer()  # warm numpy kernels and caches
            baseline = _best_time(_one_transfer)

            flusher = TelemetryFlusher(
                tmp_path / "telemetry.ndjson", interval=0.0
            )
            endpoint = MetricsEndpoint()
            host, port = endpoint.start_in_thread()
            stop = threading.Event()
            scrapes = [0]

            def scrape_loop():
                url = f"http://{host}:{port}/metrics"
                while not stop.is_set():
                    try:
                        with urllib.request.urlopen(url, timeout=5.0) as r:
                            r.read()
                        scrapes[0] += 1
                    except OSError:
                        pass
                    stop.wait(SCRAPE_INTERVAL)

            scraper = threading.Thread(target=scrape_loop, daemon=True)
            scraper.start()

            def exported_run():
                _one_transfer()
                flusher.flush()

            try:
                attached = _best_time(exported_run)
            finally:
                stop.set()
                scraper.join(timeout=10.0)
                endpoint.stop_in_thread()
                flusher.close()

        ratio = attached / baseline
        print(
            f"\nscraper-attached {attached * 1e3:.1f}ms vs recording-only "
            f"{baseline * 1e3:.1f}ms -> x{ratio:.3f} ({scrapes[0]} scrapes)"
        )
        record_trajectory(
            "obs_export",
            {
                "scraper_attached_ratio": ratio,
                "baseline_transfer_ms": baseline * 1e3,
                "attached_transfer_ms": attached * 1e3,
                "scrapes": scrapes[0],
            },
        )
        assert scrapes[0] > 0, "the scraper never landed a scrape"
        assert ratio <= 1.0 + SCRAPER_BUDGET
