"""Summarize every committed ``BENCH_*.json`` perf trajectory in one table.

The perf benchmarks append their measured numbers to per-bench history
files (see ``benchmarks/_trajectory.py``).  This report is the cross-PR
readout: for each bench and metric it prints the latest value, the value
one entry back, and the relative drift between them, so a perf regression
shows up as a column of red-flag percentages instead of a diff spelunk.

Usage::

    python benchmarks/trajectory_report.py            # all benches
    python benchmarks/trajectory_report.py mc_sharded # one bench
    python benchmarks/trajectory_report.py --json     # machine-readable
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent


def load_trajectories(bench_dir: pathlib.Path = BENCH_DIR) -> dict[str, dict]:
    """``{bench name: parsed document}`` for every readable BENCH file."""
    docs: dict[str, dict] = {}
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(doc, dict) and isinstance(doc.get("history"), list):
            docs[str(doc.get("bench", path.stem[len("BENCH_"):]))] = doc
    return docs


def _drift(latest, previous):
    """Relative change latest/previous - 1, or None when undefined."""
    if not isinstance(latest, (int, float)) or isinstance(latest, bool):
        return None
    if not isinstance(previous, (int, float)) or isinstance(previous, bool):
        return None
    if previous == 0:
        return None
    return latest / previous - 1.0


def summarize(docs: dict[str, dict]) -> list[dict]:
    """Flat rows: one per (bench, metric) with latest/previous/drift."""
    rows: list[dict] = []
    for bench, doc in sorted(docs.items()):
        history = [
            entry
            for entry in doc["history"]
            if isinstance(entry, dict) and isinstance(entry.get("metrics"), dict)
        ]
        if not history:
            continue
        latest = history[-1]
        previous = history[-2] if len(history) > 1 else None
        for metric, value in sorted(latest["metrics"].items()):
            prior = (
                previous["metrics"].get(metric)
                if previous is not None
                else None
            )
            rows.append(
                {
                    "bench": bench,
                    "metric": metric,
                    "latest": value,
                    "previous": prior,
                    "drift": _drift(value, prior),
                    "commit": latest.get("commit", "?"),
                    "entries": len(history),
                }
            )
    return rows


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_table(rows: list[dict]) -> str:
    if not rows:
        return "no BENCH_*.json trajectories found"
    header = ("bench", "metric", "latest", "previous", "drift", "commit", "n")
    table = [header]
    for row in rows:
        drift = row["drift"]
        table.append(
            (
                row["bench"],
                row["metric"],
                _fmt(row["latest"]),
                _fmt(row["previous"]),
                "-" if drift is None else f"{drift:+.1%}",
                row["commit"],
                str(row["entries"]),
            )
        )
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]
    lines = []
    for index, line in enumerate(table):
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
            .rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/trajectory_report.py",
        description="Summarize committed BENCH_*.json perf trajectories.",
    )
    parser.add_argument(
        "bench",
        nargs="*",
        help="restrict to these bench names (default: all)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the summary rows as JSON instead of a table",
    )
    args = parser.parse_args(argv)

    docs = load_trajectories()
    if args.bench:
        unknown = sorted(set(args.bench) - set(docs))
        if unknown:
            print(
                f"error: no trajectory for {', '.join(unknown)} "
                f"(have: {', '.join(sorted(docs)) or 'none'})",
                file=sys.stderr,
            )
            return 2
        docs = {name: docs[name] for name in args.bench}
    rows = summarize(docs)
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(render_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
