"""Read-only campaign status: what a journal says is happening right now.

The ``--status`` CLI view for an operator watching (or post-morteming) a
campaign.  It reads the journal exactly like ``--resume`` does — complete
records only, a torn final line silently tolerated — but **never takes
the writer lock**: a live runner keeps appending undisturbed while any
number of status readers poll the same file.

Per-task states are derived purely from the record sequence:

``succeeded`` / ``quarantined``
    A terminal record exists.
``running``
    A ``task_start`` with no terminal record yet.  If the journal later
    turns out to be from a crashed runner, "running" really means "torn
    attempt that resume will re-run" — a read-only view cannot tell a
    live worker from a dead one, and says so in the rendering.
``retrying``
    The latest attempt failed with ``will_retry`` set; the next attempt
    has not started.
``pending``
    No attempt recorded yet.

Elapsed times come from the ``ts`` wall-clock stamps the writer puts on
every record (journals from before those stamps existed render with
blank timing rather than failing).
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field

from repro.campaign.journal import read_journal, replay_journal

__all__ = ["CampaignStatus", "TaskStatus", "campaign_status", "render_status"]

#: Task display states, in rendering order.
_STATES = ("running", "retrying", "pending", "succeeded", "quarantined")


@dataclass
class TaskStatus:
    """One task's current state as the journal tells it."""

    task_id: str
    state: str  # one of _STATES
    attempts: int = 0
    #: ts of the latest task_start (running tasks), for elapsed display
    started_ts: float | None = None
    #: summed durations of recorded attempts
    spent: float = 0.0
    error: str | None = None


@dataclass
class CampaignStatus:
    """The whole campaign's current state as the journal tells it."""

    campaign_id: str
    tasks: dict[str, TaskStatus]
    torn_tail: bool
    finished: bool
    #: ts of the campaign_start record, None on pre-``ts`` journals
    started_ts: float | None = None
    #: ts of the newest record — the last sign of life
    last_ts: float | None = None
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def in_flight(self) -> int:
        return self.counts.get("running", 0)


def campaign_status(
    path: str | pathlib.Path, now: float | None = None
) -> CampaignStatus:
    """Derive the campaign's current state from its journal, read-only.

    ``now`` (wall-clock seconds, defaults to ``time.time()``) only feeds
    elapsed-time rendering; record interpretation is time-independent.
    """
    records, torn = read_journal(path)
    state = replay_journal(records, torn_tail=torn)

    # latest task_start per task (replay keeps counts, not timestamps)
    last_start_ts: dict[str, float] = {}
    last_ts: float | None = None
    for record in records:
        ts = record.get("ts")
        if ts is not None:
            last_ts = float(ts)
        if record.get("type") == "task_start" and ts is not None:
            last_start_ts[record["task"]] = float(ts)

    tasks: dict[str, TaskStatus] = {}
    for task_id, ledger in state.ledgers.items():
        attempts = ledger.started_attempts
        spent = sum(
            float(f.get("duration", 0.0)) for f in ledger.failures
        )
        if ledger.success is not None:
            spent += float(ledger.success.get("duration", 0.0))
            task_state = "succeeded"
        elif ledger.quarantined:
            task_state = "quarantined"
        elif ledger.started_attempts > ledger.failed_attempts:
            task_state = "running"
        elif ledger.failed_attempts:
            task_state = "retrying"
        else:
            task_state = "pending"
        error = None
        if ledger.failures:
            info = ledger.failures[-1].get("failure", {})
            err = info.get("error") or {}
            error = (
                f"{err.get('error_type', info.get('kind', 'error'))}: "
                f"{err.get('message', '')}"
            )
        tasks[task_id] = TaskStatus(
            task_id=task_id,
            state=task_state,
            attempts=attempts,
            started_ts=(
                last_start_ts.get(task_id) if task_state == "running" else None
            ),
            spent=spent,
            error=error,
        )

    counts = {name: 0 for name in _STATES}
    for status in tasks.values():
        counts[status.state] += 1
    meta = state.meta
    start_ts = float(meta["ts"]) if meta.get("ts") is not None else None
    return CampaignStatus(
        campaign_id=meta.get("campaign_id", "campaign"),
        tasks=tasks,
        torn_tail=torn,
        finished=state.finished,
        started_ts=start_ts,
        last_ts=last_ts,
        counts=counts,
    )


def _fmt_elapsed(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def render_status(status: CampaignStatus, now: float | None = None) -> str:
    """Human-readable status table (the ``--status`` output, and the
    campaign section of every ``watch`` frame)."""
    now = time.time() if now is None else now
    lines = []
    head = f"campaign {status.campaign_id!r}"
    if status.finished:
        head += " — finished"
    elif status.torn_tail:
        head += " — torn tail (runner died mid-append?)"
    if status.started_ts is not None:
        head += f" — started {_fmt_elapsed(max(0.0, now - status.started_ts))} ago"
    if status.last_ts is not None and not status.finished:
        head += f", last activity {_fmt_elapsed(max(0.0, now - status.last_ts))} ago"
    lines.append(head)
    summary = "  ".join(
        f"{name}={status.counts.get(name, 0)}"
        for name in _STATES
        if status.counts.get(name, 0)
    )
    lines.append(summary or "no tasks")
    for name in _STATES:
        group = [t for t in status.tasks.values() if t.state == name]
        if not group or name == "pending":
            continue
        for task in sorted(group, key=lambda t: t.task_id):
            line = f"  [{task.state:11s}] {task.task_id}  attempts={task.attempts}"
            if task.state == "running" and task.started_ts is not None:
                line += (
                    f"  in-flight {_fmt_elapsed(max(0.0, now - task.started_ts))}"
                )
            elif task.spent:
                line += f"  spent {_fmt_elapsed(task.spent)}"
            if task.error and task.state in ("retrying", "quarantined"):
                line += f"  last-error {task.error}"
            lines.append(line)
    if status.counts.get("running") and not status.finished:
        lines.append(
            "  (read-only view: a 'running' task on a dead runner is a torn "
            "attempt that --resume will re-run)"
        )
    return "\n".join(lines)
