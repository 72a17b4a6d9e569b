"""Trace context: deterministic trace ids and stitching.

A *trace* ties together every span that served one logical unit of work —
one net transfer session observed from both the sender and the receiver
side.  Trace ids are minted deterministically (:func:`mint_trace_id` is a
keyed hash of the caller's identifying parts, never an RNG read) and
travel across the UDP wire in a dedicated control packet
(``repro.net.wire.TraceContextPacket``).

Inside a process a span joins a trace through its ``trace`` attribute
(``obs.span(..., trace=...)``): one event loop serves many sessions.

Stitching (:func:`stitch_traces`) groups finished span records by trace
id, and :func:`to_trace_events` renders them as Chrome/Perfetto
trace-event JSON (one "process" per trace, one "thread" per side), so a
sender+receiver session opens as a single aligned timeline in
``chrome://tracing`` or https://ui.perfetto.dev.  Span timestamps are
``perf_counter`` readings, so spans from *different* processes share a
trace but not a clock base — Perfetto still shows each side's internal
structure correctly; cross-process skew is cosmetic.

Stdlib-only, like the rest of ``repro.obs``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Iterable

__all__ = [
    "TRACE_ID_BYTES",
    "mint_trace_id",
    "is_trace_id",
    "trace_of",
    "stitch_traces",
    "to_trace_events",
    "export_trace",
]

#: Raw width of a trace id: 16 bytes, rendered as 32 lowercase hex chars.
TRACE_ID_BYTES = 16

_HEX = set("0123456789abcdef")


def mint_trace_id(*parts: Any) -> str:
    """A deterministic 32-hex trace id from the caller's identity parts.

    Same parts, same id — a re-announced session keeps its trace.  Uses ``blake2b`` over the ``repr`` of each
    part; no RNG is touched, so minting ids can never perturb seeded
    experiment streams.
    """
    if not parts:
        raise ValueError("mint_trace_id needs at least one identity part")
    digest = hashlib.blake2b(digest_size=TRACE_ID_BYTES)
    for part in parts:
        digest.update(repr(part).encode("utf-8", "backslashreplace"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def is_trace_id(value: Any) -> bool:
    """Whether ``value`` is a well-formed 32-char lowercase-hex trace id."""
    return (
        isinstance(value, str)
        and len(value) == 2 * TRACE_ID_BYTES
        and set(value) <= _HEX
    )


# ----------------------------------------------------------------------
# stitching + export
# ----------------------------------------------------------------------
def _as_dict(record: Any) -> dict:
    """A span record (``SpanRecord`` or its ``to_json`` dict) as a dict."""
    if isinstance(record, dict):
        return record
    return record.to_json()


def trace_of(record: Any) -> str | None:
    """The trace id a span record carries, if any."""
    attrs = _as_dict(record).get("attrs") or {}
    trace = attrs.get("trace")
    return trace if is_trace_id(trace) else None


def stitch_traces(records: Iterable[Any]) -> dict[str, list[dict]]:
    """Group span records by trace id (untraced records are dropped).

    Records may come from any mix of sources — the local recorder,
    worker-shipped span dicts, NDJSON lines — and the result maps each
    trace id to its spans sorted by start time.
    """
    traces: dict[str, list[dict]] = {}
    for record in records:
        row = _as_dict(record)
        trace = trace_of(row)
        if trace is not None:
            traces.setdefault(trace, []).append(row)
    for spans in traces.values():
        spans.sort(key=lambda row: (row.get("start", 0.0), row.get("index", 0)))
    return traces


def to_trace_events(records: Iterable[Any]) -> dict:
    """Chrome/Perfetto trace-event JSON for every traced span record.

    One trace-event "process" per trace id, one "thread" per span side
    (``attrs["side"]``, defaulting to ``"local"``); each span becomes a
    complete (``ph: "X"``) event with microsecond timestamps.
    """
    traces = stitch_traces(records)
    events: list[dict] = []
    for pid, trace in enumerate(sorted(traces), start=1):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"trace {trace}"},
            }
        )
        sides = sorted(
            {(row.get("attrs") or {}).get("side", "local") for row in traces[trace]}
        )
        tids = {side: tid for tid, side in enumerate(sides, start=1)}
        for side, tid in tids.items():
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": str(side)},
                }
            )
        for row in traces[trace]:
            attrs = dict(row.get("attrs") or {})
            side = attrs.get("side", "local")
            events.append(
                {
                    "ph": "X",
                    "name": row.get("name", "span"),
                    "cat": "span",
                    "pid": pid,
                    "tid": tids[side],
                    "ts": float(row.get("start", 0.0)) * 1e6,
                    "dur": float(row.get("duration", 0.0)) * 1e6,
                    "args": {
                        **attrs,
                        "depth": row.get("depth", 0),
                        "parent": row.get("parent"),
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_trace(
    path: str | pathlib.Path, records: Iterable[Any] | None = None
) -> int:
    """Write trace-event JSON for ``records`` (default: the process
    recorder's spans) to ``path``; returns the number of span events."""
    if records is None:
        from repro.obs import runtime

        records = runtime.recorder().records
    document = to_trace_events(records)
    path = pathlib.Path(path)
    with open(path, "w") as fh:
        json.dump(document, fh, sort_keys=True)
        fh.write("\n")
    return sum(1 for event in document["traceEvents"] if event["ph"] == "X")
