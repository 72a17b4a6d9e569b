"""Harness-side spans: recorded around calls into the program, never inside it.

A span is ``{id, name, start, end, parent, workload, trial}``; the spans of
one trial share its ``trial`` number and nest under a ``trial`` span.  They
stay in memory until the run ends (``run.py`` writes them out).
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.trial = -1
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "trial": self.trial,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()


class NullTracer:
    """What an untraced trial gets: ``span()`` costs one attribute lookup."""

    _nothing = contextlib.nullcontext()

    def span(self, name: str):
        return self._nothing


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, spans: list[dict]) -> float:
    """The span's duration minus the part its direct children cover."""
    return duration(span) - sum(
        duration(child) for child in spans if child["parent"] == span["id"]
    )


def seconds_by_name(trial_span: dict, spans: list[dict]) -> dict[str, float]:
    """Total duration of each direct child name under one trial span."""
    totals: dict[str, float] = {}
    for child in spans:
        if child["parent"] == trial_span["id"]:
            totals[child["name"]] = totals.get(child["name"], 0.0) + duration(child)
    return totals
