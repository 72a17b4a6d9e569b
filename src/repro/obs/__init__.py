"""`repro.obs` — unified metrics, spans, and cross-process telemetry.

Zero-dependency observability for the whole stack: exactly-mergeable
metric instruments (:mod:`repro.obs.metrics`), nested monotonic span
tracing (:mod:`repro.obs.spans`), a per-process runtime switch
(:mod:`repro.obs.runtime`), and the live telemetry plane — exact
NDJSON metric rows and a render-only OpenMetrics exporter
(:mod:`repro.obs.export`), an HTTP pull endpoint
(:mod:`repro.obs.httpd`), deterministic trace stitching
(:mod:`repro.obs.tracecontext`) and paper-model drift SLOs
(:mod:`repro.obs.slo`).  Off by default; ``obs.enable()`` or the
experiments CLI's ``--metrics-out PATH`` turns it on.  See DESIGN.md
sections 12 (merge contract, overhead budget) and 17 (telemetry plane).
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
    recorder,
    registry,
    reset,
    snapshot,
    span,
)
from repro.obs.spans import Span, SpanRecord, SpanRecorder, TimerSpan
from repro.obs.export import (
    TelemetryFlusher,
    read_telemetry,
    snapshot_delta,
    to_openmetrics,
)
from repro.obs.httpd import MetricsEndpoint
from repro.obs.slo import (
    DriftAlert,
    DriftMonitor,
    EmDriftSLO,
    GoodputDriftSLO,
)
from repro.obs.tracecontext import (
    current_trace_id,
    export_trace,
    mint_trace_id,
    set_trace_id,
    stitch_traces,
    to_trace_events,
    use_trace,
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
    "recorder",
    "registry",
    "reset",
    "snapshot",
    "span",
    # telemetry plane
    "TelemetryFlusher",
    "read_telemetry",
    "snapshot_delta",
    "to_openmetrics",
    "MetricsEndpoint",
    "DriftAlert",
    "DriftMonitor",
    "EmDriftSLO",
    "GoodputDriftSLO",
    "current_trace_id",
    "export_trace",
    "mint_trace_id",
    "set_trace_id",
    "stitch_traces",
    "to_trace_events",
    "use_trace",
]
