"""Snapshot exporters: OpenMetrics text, exact deltas, NDJSON flushing.

Three export surfaces over :class:`~repro.obs.metrics.MetricsSnapshot`:

* :func:`to_openmetrics` — the Prometheus / OpenMetrics text exposition
  format, **render-only**: it is what outside scrapers ingest from
  ``/metrics``.  The text is lossy by design (histogram sums become
  floats, never-observed gauges have no sample), so nothing in the repo
  reads it back; every reader folds the snapshot's exact JSON entries
  instead (``/metrics.json``, worker shipping, the NDJSON rows below).

* :func:`snapshot_delta` — the exact difference between two cumulative
  snapshots of the *same* registry.  Counters and histogram counts/sums
  subtract; gauges and histogram min/max stay cumulative (they are
  monotone under their own merge, so merging every delta in any order
  reconstructs the final snapshot exactly).  An unchanged instrument
  produces no entry at all, which is what makes periodic flushing cheap.

* :class:`TelemetryFlusher` — a periodic delta-aware NDJSON writer: each
  flush appends one ``{"record": "metric", "seq": N, ...}`` line per
  *changed* instrument (histogram sums as exact decimal strings) plus
  ``{"record": "alert", ...}`` lines for any SLO breaches from an
  attached :class:`~repro.obs.slo.DriftMonitor`.  :func:`read_telemetry`
  folds such a stream back into one snapshot, tolerating a torn final
  line from a live writer.  These rows are the repo's one metrics file
  format: ``--metrics-out`` (:func:`repro.obs.export_metrics`) writes
  exactly one flush of them.

Stdlib-only, like the rest of ``repro.obs``.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import re
import time
from typing import Any, Callable, Iterator

from repro.obs.metrics import (
    MetricRegistry,
    MetricsSnapshot,
    _unscaled,
    labels_key,
)

__all__ = [
    "to_openmetrics",
    "snapshot_delta",
    "TelemetryFlusher",
    "read_telemetry",
]

#: Every exposition family name gets this prefix (and dots become
#: underscores): ``net.frames_tx`` -> ``repro_net_frames_tx``.
PREFIX = "repro_"

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _family(name: str) -> str:
    """Exposition family name for a dotted instrument name."""
    return PREFIX + _NAME_SANITIZE.sub("_", str(name))


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(labels: dict, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [
        (_LABEL_SANITIZE.sub("_", str(key)), _escape(value))
        for key, value in sorted(labels.items(), key=lambda kv: str(kv[0]))
    ]
    pairs.extend((key, _escape(value)) for key, value in extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{key}="{value}"' for key, value in pairs) + "}"


def _fmt(value: float) -> str:
    """Shortest-round-trip float text (ints render as ints)."""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


# ----------------------------------------------------------------------
# renderer
# ----------------------------------------------------------------------
def to_openmetrics(snapshot: MetricsSnapshot) -> str:
    """Render a snapshot as OpenMetrics text (ending in ``# EOF``)."""
    lines: list[str] = []
    entries = snapshot._entries
    ordered = sorted(entries)
    for name, group in itertools.groupby(ordered, key=lambda key: key[0]):
        keys = list(group)
        kind = entries[keys[0]]["type"]
        family = _family(name)
        lines.append(f"# TYPE {family} {kind}")
        lines.append(f"# HELP {family} repro instrument {_escape(name)}")
        for key in keys:
            entry = entries[key]
            labels = entry.get("labels", {})
            label_text = _render_labels(labels)
            if entry["type"] == "counter":
                lines.append(f"{family}_total{label_text} {int(entry['value'])}")
            elif entry["type"] == "gauge":
                if entry["value"] is not None:
                    lines.append(f"{family}{label_text} {_fmt(entry['value'])}")
            else:  # histogram
                cumulative = 0
                for bound, count in zip(entry["bounds"], entry["counts"]):
                    cumulative += int(count)
                    bucket = _render_labels(labels, (("le", _fmt(float(bound))),))
                    lines.append(f"{family}_bucket{bucket} {cumulative}")
                total = int(entry["count"])
                bucket = _render_labels(labels, (("le", "+Inf"),))
                lines.append(f"{family}_bucket{bucket} {total}")
                sum_value = 0.0 if total == 0 else _unscaled(int(entry["sum"]), 1)
                lines.append(f"{family}_sum{label_text} {_fmt(sum_value)}")
                lines.append(f"{family}_count{label_text} {total}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# deltas
# ----------------------------------------------------------------------
def snapshot_delta(
    previous: MetricsSnapshot, current: MetricsSnapshot
) -> MetricsSnapshot:
    """The exact change between two cumulative snapshots of one registry.

    Only instruments that changed (or appeared) since ``previous`` are
    present.  Merging every delta of a run — in any order — reconstructs
    the final cumulative snapshot bit-for-bit: counters and histogram
    counts/sums are true differences, while gauges and histogram min/max
    ride along cumulatively (each is monotone under its own merge).
    """
    entries: dict[tuple, dict] = {}
    for key, entry in current._entries.items():
        old = previous._entries.get(key)
        if old == entry:
            continue
        if old is None:
            entries[key] = dict(entry)
            continue
        if entry["type"] != old["type"]:
            raise ValueError(
                f"instrument {key[0]!r} changed type between snapshots"
            )
        if entry["type"] == "counter":
            step = int(entry["value"]) - int(old["value"])
            if step < 0:
                raise ValueError(
                    f"counter {key[0]!r} went backwards between snapshots"
                )
            entries[key] = {**entry, "value": step}
        elif entry["type"] == "gauge":
            entries[key] = dict(entry)
        else:  # histogram
            counts = [
                int(c) - int(o) for c, o in zip(entry["counts"], old["counts"])
            ]
            step = int(entry["count"]) - int(old["count"])
            if step < 0 or any(c < 0 for c in counts):
                raise ValueError(
                    f"histogram {key[0]!r} went backwards between snapshots"
                )
            entries[key] = {
                **entry,
                "counts": counts,
                "count": step,
                "sum": str(int(entry["sum"]) - int(old["sum"])),
            }
    return MetricsSnapshot(entries)


# ----------------------------------------------------------------------
# NDJSON flushing
# ----------------------------------------------------------------------
class TelemetryFlusher:
    """Periodic delta-aware NDJSON writer for a live registry.

    Call :meth:`maybe_flush` from any convenient loop (the campaign
    supervisor calls it once per settled task); it only touches the
    snapshot machinery when ``interval`` seconds have passed.  Each flush
    appends the *changed* instruments as ``{"record": "metric", "seq": N,
    ...}`` lines (exact entry state — histogram sums stay decimal
    strings) and, when a ``monitor`` is attached, any breached SLOs as
    ``{"record": "alert", ...}`` lines.  :func:`read_telemetry` is the
    matching reader.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        interval: float = 5.0,
        monitor: Any | None = None,
        source: Callable[[], MetricsSnapshot] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval < 0:
            raise ValueError(f"interval must be >= 0, got {interval}")
        self.path = pathlib.Path(path)
        self.interval = float(interval)
        self.monitor = monitor
        self._source = source
        self._clock = clock
        self._fh = open(self.path, "w")
        self._previous = MetricsSnapshot()
        self._seq = 0
        self._last: float | None = None
        self._closed = False

    @property
    def seq(self) -> int:
        """Number of completed flushes."""
        return self._seq

    def _snapshot(self) -> MetricsSnapshot:
        if self._source is not None:
            return self._source()
        from repro.obs import runtime

        return runtime.snapshot()

    def maybe_flush(self, force: bool = False) -> int:
        """Flush if the interval elapsed (or ``force``); returns lines written."""
        if self._closed:
            return 0
        now = self._clock()
        if (
            not force
            and self._last is not None
            and now - self._last < self.interval
        ):
            return 0
        return self.flush()

    def flush(self) -> int:
        """Write the delta since the last flush; returns lines written."""
        if self._closed:
            return 0
        snapshot = self._snapshot()
        delta = snapshot_delta(self._previous, snapshot)
        written = 0
        for key in sorted(delta._entries):
            row = {"record": "metric", "seq": self._seq, **delta._entries[key]}
            self._fh.write(json.dumps(row, sort_keys=True))
            self._fh.write("\n")
            written += 1
        if self.monitor is not None:
            for alert in self.monitor.evaluate(snapshot):
                if alert.breached:
                    row = {"seq": self._seq, **alert.to_json()}
                    self._fh.write(json.dumps(row, sort_keys=True))
                    self._fh.write("\n")
                    written += 1
        self._fh.flush()
        self._previous = snapshot
        self._seq += 1
        self._last = self._clock()
        return written

    def close(self) -> None:
        """Final flush, then close the stream (idempotent)."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        self._fh.close()


def _iter_ndjson(path: str | pathlib.Path) -> Iterator[dict]:
    """Yield parsed NDJSON rows, skipping a torn tail from a live writer."""
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail (or foreign junk) — skip
                if isinstance(row, dict):
                    yield row
    except FileNotFoundError:
        return


def read_telemetry(
    path: str | pathlib.Path,
) -> tuple[MetricsSnapshot, list[dict]]:
    """Fold a flusher stream back into ``(snapshot, alerts)``.

    Merges every delta ``metric`` row (exact, order-independent) and
    collects ``alert`` rows verbatim.  Tolerates a torn final line, so it
    is safe to call against a file a live run is still appending to.
    """
    registry = MetricRegistry()
    alerts: list[dict] = []
    for row in _iter_ndjson(path):
        record = row.get("record")
        if record == "alert":
            alerts.append(row)
        elif record == "metric":
            entry = {
                k: v for k, v in row.items() if k not in ("record", "seq")
            }
            try:
                key = (str(entry["name"]), labels_key(entry.get("labels", {})))
                registry.merge_snapshot(MetricsSnapshot({key: entry}))
            except (KeyError, TypeError, ValueError):
                continue
    return registry.snapshot(), alerts
