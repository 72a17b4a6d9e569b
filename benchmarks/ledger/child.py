"""One pass of one workload, in a fresh process.

``run.py`` starts this module, times spawn -> ``ready`` (imports, GF tables,
codec construction, seeded inputs, one untimed warm-up trial) as one cold
start, and reads one JSON line per trial.  Trials are timed here, with the
collector run before and disabled during each one, and every trial sits
between two runs of the host-speed kernel (``host.spin``).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

from benchmarks.ledger import layers, spans
from benchmarks.ledger.host import spin
from benchmarks.ledger.metrics import TRACED_TRIAL_SHARE, median
from benchmarks.ledger.workloads import WORKLOADS, Outcome
from repro import obs

_NULL = spans.NullTracer()
#: the untimed warm-up draws its own seed, outside any timed trial's
WARM_UP_INDEX = 1_000_000


def timed_trial(workload, index: int, tracer=None) -> dict:
    """Run and time trial ``index``; with a tracer, also read its layers."""
    traced = tracer is not None
    registry = trial_span = None
    gc.collect()
    gc.disable()
    try:
        cpu = time.process_time()
        wall = time.perf_counter()
        try:
            if traced:
                tracer.trial = index
                with obs.capture() as registry, tracer.span("trial") as trial_span:
                    outcome = workload.trial(index, tracer)
            else:
                outcome = workload.trial(index, _NULL)
        except Exception as exc:
            # the boundary that must keep running: a trial that raises is a
            # failed trial, counted beside the ones that fail verification
            outcome = Outcome(False, error=f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
    finally:
        gc.enable()
    record = {
        "event": "trial",
        "index": index,
        "traced": traced,
        "ok": outcome.ok,
        "error": outcome.error,
        "wall": wall,
        "cpu": cpu,
        "work": outcome.work,
        "data_packets": outcome.data_packets,
        "transmitted": outcome.transmitted,
        "detail": outcome.detail,
    }
    if traced and outcome.ok:
        record["layer"] = layers.from_trial(
            wall, cpu, outcome, registry, trial_span, tracer.spans
        )
    return record


def run_pass(workload, budget: float, traced: bool, emit, before: float) -> None:
    """Trials until ``budget`` seconds are used; in a traced pass every
    second trial is traced and the layer replays follow the trials.
    ``before`` is the kernel time taken just before the first trial."""
    tracer = spans.Tracer(workload.name) if traced else None
    trial_budget = budget * TRACED_TRIAL_SHARE if traced else budget
    started = time.perf_counter()
    walls: list[float] = []
    last_traced = None
    index = 0
    while True:
        trace_this = traced and index % 2 == 1
        record = timed_trial(workload, index, tracer if trace_this else None)
        after = spin()
        # the host's speed while the trial ran: the kernel just before it
        # and just after it
        record["spin_ms"] = (before + after) / 2
        before = after
        emit(record)
        walls.append(record["wall"])
        if trace_this and record["ok"]:
            last_traced = record
        index += 1
        enough = index >= 2 if traced else True
        if enough and time.perf_counter() - started + median(walls) > trial_budget:
            break
    if last_traced is not None:
        emit({"event": "layers", "values": layers.replay(workload, last_traced)})
    if tracer is not None:
        emit({"event": "spans", "spans": tracer.spans})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def emit(record: dict) -> None:
        sys.stdout.write(json.dumps(record) + "\n")
        sys.stdout.flush()

    workload = WORKLOADS[args.workload](args.seed, args.pass_index)
    workload.setup()
    try:
        warm_up = timed_trial(workload, WARM_UP_INDEX)
        emit(
            {
                "event": "ready",
                "warm_up_ok": warm_up["ok"],
                "error": warm_up["error"],
                "em_closed_form": workload.em_closed_form,
            }
        )
        # the kernel right after the cold start closes the bracket the
        # parent opened before it spawned this process
        after_setup = spin()
        emit({"event": "host", "spin_ms": after_setup})
        run_pass(workload, args.seconds, bool(args.trace), emit, after_setup)
    finally:
        workload.close()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit({"event": "done", "rss_mb": peak})
    return 0


if __name__ == "__main__":
    sys.exit(main())
