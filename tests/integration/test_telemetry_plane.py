"""Integration: traces and telemetry across the UDP transport, end to end.

* a loopback net transfer produces sender **and** receiver spans under
  one trace id, and its counters sit within a pinned tolerance of the
  paper's closed-form ``E[M]``;
* a v1-only peer (no trace-context decoder) interoperates: the transfer
  completes bit-identically, merely untraced, with the unknown frame
  counted — never crashed on;
* spans a full recorder drops are counted, and the count reaches the
  ``--metrics-out`` rows.
"""

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.net import NetConfig, NetServer, fetch
from repro.net import wire
from repro.obs.tracecontext import stitch_traces, to_trace_events

pytestmark = pytest.mark.timeout(300)

HARD_LIMIT = 60.0

#: pinned CI tolerance for the loopback E[M] acceptance check: a clean
#: (loss-free) transfer sends no repair parity, so observed E[M] is 1.0
#: exactly and Equation 6 at p=0 is 1.0; the slack absorbs a
#: scheduler-induced spurious NAK round on a loaded CI box.
EM_NET_TOLERANCE = 0.25


def run_bounded(coro):
    async def bounded():
        return await asyncio.wait_for(coro, timeout=HARD_LIMIT)

    return asyncio.run(bounded())


def payload(n_groups: int, config: NetConfig, seed: int = 77) -> bytes:
    size = n_groups * config.k * config.packet_size
    return np.random.default_rng(seed).bytes(size)


async def loopback_transfer(data, config):
    """Serve ``data`` and fetch it once over loopback."""
    server = NetServer(data, config)
    host, port = await server.start()
    try:
        result = await fetch(host, port, config=config, deadline=20.0)
        for _ in range(100):  # let the sender session settle its report
            if server.reports:
                break
            await asyncio.sleep(0.05)
    finally:
        await server.close()
    return result


class TestStitchedLoopbackTrace:
    """Acceptance: one trace, both sides, drift within tolerance."""

    def test_sender_and_receiver_stitch_under_one_trace(self):
        config = NetConfig(k=4, h=8, packet_size=256, seed=21)
        data = payload(4, config)
        with obs.capture() as registry:
            result = run_bounded(loopback_transfer(data, config))
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

        # observed E[M] (payload frames sent over the loss-free stream)
        # within the pinned tolerance of the closed form, 1.0 at p = 0
        sent = sum(
            value
            for (name, labels), value in snapshot.counter_values().items()
            if name == "net.frames_tx"
            and dict(labels).get("kind") in ("data", "parity")
        )
        observed = sent / snapshot.value("net.stream_data_tx")
        assert abs(observed - 1.0) <= EM_NET_TOLERANCE

    def test_same_seed_reruns_mint_the_same_trace(self):
        config = NetConfig(k=2, h=4, packet_size=128, seed=22)
        data = payload(2, config)

        def trace_once():
            with obs.capture():
                result = run_bounded(loopback_transfer(data, config))
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
            result = run_bounded(loopback_transfer(data, config))
            snapshot = registry.snapshot()
        # the transfer is untouched: bit-identical delivery, no trace
        assert result.complete and result.data == data
        assert result.trace_id is None
        # the unfamiliar frame was counted and dropped, not crashed on
        assert snapshot.value("net.frame_errors", reason="unknown_type") >= 1


class TestSpansDroppedSurfacing:
    def test_dropped_spans_reach_every_export_path(self, tmp_path):
        from repro.obs import runtime
        from repro.obs.spans import SpanRecorder

        path = tmp_path / "metrics.ndjson"
        with obs.capture():
            # shrink the recorder; capture() restores the real one on exit
            runtime._recorder = SpanRecorder(capacity=2)
            for _ in range(5):
                with obs.span("overflow.unit"):
                    pass
            snapshot = obs.snapshot()
            obs.export_metrics(path)
        assert snapshot.value("obs.spans_dropped") == 3
        assert obs.read_telemetry(path).value("obs.spans_dropped") == 3
