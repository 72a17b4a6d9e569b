"""``watch`` — a polling terminal dashboard for a live run.

Reads two optional sources on an interval and renders one screen:

* ``--journal PATH`` — the campaign journal, through the same read-only
  torn-tail-tolerant reader ``--status`` uses (never takes the writer
  lock, safe against a live runner).
* ``--metrics SOURCE`` — live metrics, either scraped from a running
  endpoint's exact ``/metrics.json`` (``http://host:port/metrics`` or
  bare ``host:port``, read with :meth:`MetricsSnapshot.from_json`) or
  folded with :func:`repro.obs.read_telemetry` from an NDJSON metrics
  file: a ``--telemetry-out`` stream a live run is appending to, or a
  finished run's ``--metrics-out`` dump.

The dashboard shows rolling goodput (counter deltas between polls, not
lifetime averages), NAK/retry rates, net sessions by outcome, ejections
and churn, and the drift-SLO gauges with any breached alerts — the
operator's live view of "is this run tracking the paper's model".

``watch`` is the repo's one live view (``--status PATH`` is the one-shot
journal table it embeds).  ``--count N`` renders N frames and exits
(what the tests and the CI smoke use); without it the loop runs until
Ctrl-C, which exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.request

from repro.obs.metrics import MetricsSnapshot

__all__ = ["main", "render_dashboard", "MetricsSource"]

_SCRAPE_TIMEOUT = 5.0


class MetricsSource:
    """One ``--metrics`` argument, resolved to a snapshot-producing poll.

    ``http://…`` (or bare ``host:port``) scrapes the endpoint's exact
    ``/metrics.json``; anything else is read as an NDJSON metrics file.
    A poll that fails (endpoint gone, a 404 or non-JSON body, file not
    written yet) returns the previous snapshot so the dashboard degrades
    to stale data, never to a crash.
    """

    def __init__(self, spec: str) -> None:
        self.spec = spec
        self.url: str | None = None
        self.path: str | None = None
        if spec.startswith(("http://", "https://")):
            url = spec.rstrip("/")
            if not url.endswith("/metrics.json"):
                url = url.removesuffix("/metrics") + "/metrics.json"
            self.url = url
        elif self._looks_like_hostport(spec):
            self.url = f"http://{spec}/metrics.json"
        else:
            self.path = spec
        self.last_error: str | None = None
        self._previous = MetricsSnapshot()
        self._alerts: list[dict] = []

    @staticmethod
    def _looks_like_hostport(spec: str) -> bool:
        host, sep, port = spec.rpartition(":")
        return bool(sep) and bool(host) and port.isdigit() and "/" not in spec

    def poll(self) -> tuple[MetricsSnapshot, list[dict]]:
        """``(snapshot, alert rows)`` — stale-but-sane on any failure."""
        try:
            if self.url is not None:
                with urllib.request.urlopen(
                    self.url, timeout=_SCRAPE_TIMEOUT
                ) as response:
                    document = json.loads(response.read())
                self._previous = MetricsSnapshot.from_json(document)
            else:
                from repro.obs.export import read_telemetry

                self._previous, self._alerts = read_telemetry(self.path)
            self.last_error = None
        except (
            OSError, ValueError, KeyError, TypeError, AttributeError
        ) as exc:
            self.last_error = f"{type(exc).__name__}: {exc}"
        return self._previous, list(self._alerts)


def _fmt_rate(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f}M/s"
    if value >= 1e3:
        return f"{value / 1e3:.2f}k/s"
    return f"{value:.1f}/s"


def _fmt_bytes_rate(value: float) -> str:
    for unit, scale in (("GiB", 2**30), ("MiB", 2**20), ("KiB", 2**10)):
        if value >= scale:
            return f"{value / scale:.2f} {unit}/s"
    return f"{value:.0f} B/s"


def _totals(snapshot: MetricsSnapshot, name: str) -> dict[tuple, int]:
    """Counter values of one family keyed by labels tuple."""
    return {
        labels: value
        for (family, labels), value in snapshot.counter_values().items()
        if family == name
    }


def _total(snapshot: MetricsSnapshot, name: str) -> int:
    return sum(_totals(snapshot, name).values())


def _gauges(snapshot: MetricsSnapshot, name: str) -> dict[tuple, float]:
    out: dict[tuple, float] = {}
    for entry in snapshot.to_json()["instruments"]:
        if (
            entry["type"] == "gauge"
            and entry["name"] == name
            and entry["value"] is not None
        ):
            out[tuple(sorted(entry["labels"].items()))] = entry["value"]
    return out


def _rate(
    current: MetricsSnapshot, previous: MetricsSnapshot, name: str, dt: float
) -> float:
    if dt <= 0:
        return 0.0
    return max(0, _total(current, name) - _total(previous, name)) / dt


def render_dashboard(
    snapshot: MetricsSnapshot,
    previous: MetricsSnapshot,
    dt: float,
    alerts: list[dict] | None = None,
    status=None,
    now: float | None = None,
    source_error: str | None = None,
) -> str:
    """One dashboard frame as text (pure function of its inputs)."""
    now = time.time() if now is None else now
    lines = [f"repro watch — {time.strftime('%H:%M:%S', time.localtime(now))}"]
    if source_error:
        lines.append(f"  [metrics source stale: {source_error}]")

    # -- throughput -----------------------------------------------------
    goodput = _gauges(snapshot, "net.goodput_bytes_per_s")
    payload_rate = _rate(snapshot, previous, "transfer.payload_bytes", dt)
    frame_rate = _rate(snapshot, previous, "net.frames_tx", dt)
    row = []
    if goodput:
        row.append(f"net goodput {_fmt_bytes_rate(max(goodput.values()))}")
    if payload_rate:
        row.append(f"payload {_fmt_bytes_rate(payload_rate)} rolling")
    if frame_rate:
        row.append(f"frames tx {_fmt_rate(frame_rate)}")
    lines.append("throughput: " + ("  ".join(row) or "(no traffic yet)"))

    # -- recovery pressure ---------------------------------------------
    row = []
    for label, name in (
        ("naks", "transfer.naks_sent"),
        ("nak retries", "net.nak_retries"),
        ("implied polls", "net.implicit_polls"),
        ("early re-naks", "net.early_renaks"),
        ("retransmissions", "transfer.retransmissions_sent"),
        ("task retries", "campaign.retries"),
    ):
        total = _total(snapshot, name)
        if total or _totals(snapshot, name):
            rate = _rate(snapshot, previous, name, dt)
            row.append(f"{label} {total} ({_fmt_rate(rate)})")
    lines.append("recovery:   " + ("  ".join(row) or "(quiet)"))

    # -- sessions & membership -----------------------------------------
    sessions = _totals(snapshot, "net.sessions")
    if sessions:
        by_outcome = "  ".join(
            f"{dict(labels).get('outcome', '?')}={value}"
            for labels, value in sorted(sessions.items())
        )
        lines.append(f"sessions:   {by_outcome}")
    ejected = _total(snapshot, "net.members_ejected")
    churn = _totals(snapshot, "churn.receivers_affected")
    if ejected or churn:
        row = [f"ejected={ejected}"]
        row.extend(
            f"churn[{dict(labels).get('generator', '?')}/"
            f"{dict(labels).get('mode', '?')}]={value}"
            for labels, value in sorted(churn.items())
        )
        lines.append("membership: " + "  ".join(row))

    # -- paper-model drift ---------------------------------------------
    ratios = _gauges(snapshot, "slo.ratio")
    observed = _gauges(snapshot, "slo.observed")
    predicted = _gauges(snapshot, "slo.predicted")
    for labels in sorted(ratios):
        slo = dict(labels).get("slo", "?")
        lines.append(
            f"drift:      {slo}: observed {observed.get(labels, float('nan')):.4g}"
            f" vs predicted {predicted.get(labels, float('nan')):.4g}"
            f" (ratio {ratios[labels]:.3f})"
        )
    breached = [
        row
        for row in (alerts or ())
        if row.get("record") == "alert" and row.get("breached")
    ]
    if breached:
        seen: dict[str, dict] = {str(r.get("slo")): r for r in breached}
        for name in sorted(seen):
            row = seen[name]
            lines.append(
                f"ALERT:      {name} ratio {row.get('ratio', float('nan')):.3f}"
                f" outside ±{100 * float(row.get('tolerance', 0)):.0f}%"
            )

    # -- campaign ------------------------------------------------------
    if status is not None:
        from repro.campaign.status import render_status

        lines.append("")
        lines.append(render_status(status, now=now))
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments watch",
        description="Polling terminal dashboard over a live run's journal "
        "and metrics endpoint / telemetry stream.",
    )
    parser.add_argument(
        "--journal", metavar="PATH", help="campaign journal to watch"
    )
    parser.add_argument(
        "--metrics",
        metavar="SOURCE",
        help="metrics source: http://host:port/metrics, host:port, "
        "or an NDJSON metrics file (--telemetry-out or --metrics-out)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="poll interval (default %(default)s)",
    )
    parser.add_argument(
        "--count",
        type=int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: run until Ctrl-C)",
    )
    return parser


def main(argv: list[str]) -> int:
    """Entry point for the ``watch`` verb; returns an exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.journal is None and args.metrics is None:
        parser.print_usage(sys.stderr)
        print("error: give --journal PATH and/or --metrics SOURCE",
              file=sys.stderr)
        return 2
    if args.interval < 0:
        parser.print_usage(sys.stderr)
        print("error: --interval must be >= 0", file=sys.stderr)
        return 2
    source = None if args.metrics is None else MetricsSource(args.metrics)
    previous = MetricsSnapshot()
    last_poll: float | None = None
    frames = 0
    clear = sys.stdout.isatty()
    try:
        while args.count is None or frames < args.count:
            if frames:
                time.sleep(args.interval)
            snapshot, alerts = (
                (MetricsSnapshot(), []) if source is None else source.poll()
            )
            status = None
            if args.journal is not None:
                from repro.campaign import JournalError, campaign_status

                try:
                    status = campaign_status(args.journal)
                except (OSError, JournalError) as exc:
                    print(
                        f"error: cannot read journal {args.journal}: {exc}",
                        file=sys.stderr,
                    )
                    return 2
            now = time.monotonic()
            dt = 0.0 if last_poll is None else now - last_poll
            last_poll = now
            frame = render_dashboard(
                snapshot,
                previous,
                dt,
                alerts=alerts,
                status=status,
                source_error=None if source is None else source.last_error,
            )
            if clear:
                sys.stdout.write("\x1b[2J\x1b[H")
            print(frame, flush=True)
            previous = snapshot
            frames += 1
    except KeyboardInterrupt:
        print()  # leave the shell prompt on its own line
    return 0
