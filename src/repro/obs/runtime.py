"""Process-global observability runtime: one switch, one registry.

Instrumented code throughout the repo asks two cheap questions::

    from repro import obs

    if obs.is_enabled():                       # one global read
        obs.counter("galois.matmul_calls", m=field.m).inc()

    with obs.span("rse.decode", k=k, h=h):     # timer either way
        ...

Everything is **off by default**: ``is_enabled()`` is a module-level
boolean read, ``span()`` returns a bare :class:`~repro.obs.spans.TimerSpan`
when disabled, and no instrument objects exist until something records.
``enable()`` flips the switch; a sharded Monte-Carlo pool worker
records each chunk under :func:`capture` and ships the snapshot home,
where the parent merges it (`repro.obs.metrics` guarantees the merge is
partition-invariant).  Nothing here reads or seeds any RNG, so enabling
observability can never perturb seeded experiment streams.

The state is deliberately per-process and unlocked: simulation code is
single-threaded, and cross-process aggregation happens via snapshots,
not shared memory.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
from typing import Any, Iterator

from repro.obs.metrics import (
    DEFAULT_DURATION_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    MetricsSnapshot,
    labels_key,
)
from repro.obs.spans import Span, SpanRecorder, TimerSpan

__all__ = [
    "is_enabled",
    "enable",
    "disable",
    "reset",
    "registry",
    "recorder",
    "counter",
    "gauge",
    "histogram",
    "span",
    "snapshot",
    "merge_snapshot",
    "capture",
    "export_metrics",
    "export_spans",
    "read_telemetry",
]

_enabled = False
_registry = MetricRegistry()
_recorder = SpanRecorder()


def is_enabled() -> bool:
    """Whether telemetry is recording in this process."""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    """Stop recording; accumulated state stays readable until reset()."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop all accumulated metrics and spans (state, not the switch)."""
    _registry.clear()
    _recorder.clear()


def registry() -> MetricRegistry:
    return _registry


def recorder() -> SpanRecorder:
    return _recorder


# ----------------------------------------------------------------------
# instrument accessors (call only behind is_enabled() on hot paths)
# ----------------------------------------------------------------------
def counter(name: str, **labels: Any) -> Counter:
    return _registry.counter(name, **labels)


def gauge(name: str, mode: str = "max", **labels: Any) -> Gauge:
    return _registry.gauge(name, mode=mode, **labels)


def histogram(
    name: str,
    bounds: tuple[float, ...] = DEFAULT_DURATION_BOUNDS,
    **labels: Any,
) -> Histogram:
    return _registry.histogram(name, bounds=bounds, **labels)


def _span_finished(record) -> None:
    # durations join the mergeable registry, labeled by span name only —
    # span attrs are unbounded-cardinality and stay on the trace records
    _registry.histogram("span.duration_seconds", span=record.name).observe(
        record.duration
    )


def span(name: str, **attrs: Any) -> Span | TimerSpan:
    """A timing context: recording when enabled, a bare timer otherwise.

    A span that belongs to a trace (`repro.obs.tracecontext`) is given
    its id as the ``trace`` attribute.
    """
    if not _enabled:
        return TimerSpan()
    return Span(name, _recorder, attrs, on_finish=_span_finished)


# ----------------------------------------------------------------------
# aggregation + export
# ----------------------------------------------------------------------
def snapshot() -> MetricsSnapshot:
    """Frozen copy of this process's registry (mergeable, JSON-safe).

    Bounded-recorder truncation is never silent: the recorder's dropped
    count is levelled into an ``obs.spans_dropped`` counter here, so
    every export path (``--metrics-out`` rows, worker-shipped snapshots)
    carries it.  Nothing is injected while telemetry is disabled and
    nothing was dropped, preserving the "disabled runs observe nothing"
    contract.
    """
    dropped = _recorder.dropped
    if _enabled or dropped:
        instrument = _registry.counter("obs.spans_dropped")
        if dropped > instrument.value:
            instrument.inc(dropped - instrument.value)
    return _registry.snapshot()


def merge_snapshot(incoming: MetricsSnapshot) -> None:
    """Fold a worker's shipped snapshot into this process's registry."""
    _registry.merge_snapshot(incoming)


@contextlib.contextmanager
def capture(enabled: bool = True) -> Iterator[MetricRegistry]:
    """Scoped telemetry for tests: fresh state in, prior state restored.

    ``with obs.capture() as reg: ...`` enables recording into a clean
    registry/recorder pair and yields the registry; on exit the previous
    runtime state (switch, registry, recorder) is restored exactly.
    """
    global _enabled, _registry, _recorder
    saved = (_enabled, _registry, _recorder)
    _enabled = enabled
    _registry = MetricRegistry()
    _recorder = SpanRecorder()
    try:
        yield _registry
    finally:
        _enabled, _registry, _recorder = saved


def export_metrics(
    path: str | pathlib.Path, snap: MetricsSnapshot | None = None
) -> int:
    """Dump a snapshot (default: this process's) to ``path``.

    Writes one exact ``{"record": "metric", "seq": 0, ...}`` NDJSON row
    per instrument, in key order, whatever the suffix: histogram sums stay
    decimal strings, so :func:`read_telemetry` folds the file back to
    ``snap`` bit-for-bit.  Returns the number of instruments written.
    """
    if snap is None:
        snap = snapshot()
    with open(path, "w") as fh:
        for key in sorted(snap._entries):
            row = {"record": "metric", "seq": 0, **snap._entries[key]}
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")
    return len(snap._entries)


def read_telemetry(path: str | pathlib.Path) -> MetricsSnapshot:
    """Fold the ``metric`` rows of an NDJSON file into one snapshot.

    The merge is exact and order-independent.  Lines that are not metric
    rows (a torn tail, pasted Prometheus text) are skipped.
    """
    registry = MetricRegistry()
    with open(path) as fh:
        for line in fh:
            try:
                row = json.loads(line)
                if row.get("record") != "metric":
                    continue
                entry = {
                    k: v for k, v in row.items() if k not in ("record", "seq")
                }
                key = (str(entry["name"]), labels_key(entry.get("labels", {})))
                registry.merge_snapshot(MetricsSnapshot({key: entry}))
            except (AttributeError, KeyError, TypeError, ValueError):
                continue  # not a metric row: skip it
    return registry.snapshot()


def export_spans(path: str | pathlib.Path, mode: str = "w") -> int:
    """Dump this process's finished spans as NDJSON; returns line count."""
    return _recorder.to_ndjson(path, mode=mode)
