"""`repro.obs` — unified metrics, spans, and cross-process telemetry.

Zero-dependency observability for the whole stack: exactly-mergeable
metric instruments (:mod:`repro.obs.metrics`), nested monotonic span
tracing (:mod:`repro.obs.spans`), a per-process runtime switch with the
exact NDJSON metric rows of ``--metrics-out`` (:mod:`repro.obs.runtime`),
and deterministic trace stitching (:mod:`repro.obs.tracecontext`).  Off
by default; ``obs.enable()`` or the experiments CLI's ``--metrics-out
PATH`` turns it on.  See DESIGN.md sections 12 (merge contract, overhead
budget) and 17 (trace context).
"""

from repro.obs.metrics import (
    DEFAULT_DURATION_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    MetricsSnapshot,
    labels_key,
)
from repro.obs.runtime import (
    capture,
    counter,
    disable,
    enable,
    export_metrics,
    export_spans,
    gauge,
    histogram,
    is_enabled,
    merge_snapshot,
    read_telemetry,
    recorder,
    registry,
    reset,
    snapshot,
    span,
)
from repro.obs.spans import Span, SpanRecord, SpanRecorder, TimerSpan
from repro.obs.tracecontext import (
    export_trace,
    mint_trace_id,
    stitch_traces,
    to_trace_events,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "MetricsSnapshot",
    "DEFAULT_DURATION_BOUNDS",
    "labels_key",
    "Span",
    "SpanRecord",
    "SpanRecorder",
    "TimerSpan",
    "capture",
    "counter",
    "disable",
    "enable",
    "export_metrics",
    "export_spans",
    "gauge",
    "histogram",
    "is_enabled",
    "merge_snapshot",
    "read_telemetry",
    "recorder",
    "registry",
    "reset",
    "snapshot",
    "span",
    "export_trace",
    "mint_trace_id",
    "stitch_traces",
    "to_trace_events",
]
