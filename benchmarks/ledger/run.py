"""Run one workload of the ledger and print one JSON result line.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

A run is ``PASSES`` fresh child processes (``child.py``), one after another:
each is timed from spawn to its ``ready`` line (one ``setup_s`` sample) and
then runs timed trials for its share of ``--seconds``.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced trials,
replays the layers, prints the per-layer metrics and writes the harness spans
to ``out/spans-<workload>.json`` beside this file.

Closed loop, one client process, one asyncio loop, no threads, at most four
receiver sockets, loopback interface only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not __package__:
    # started as a script: make the package importable the way -m would
    sys.path.insert(0, str(ROOT))

from benchmarks.ledger.host import at_reference_speed, spin  # noqa: E402
from benchmarks.ledger.metrics import (  # noqa: E402
    END_TO_END,
    NET_WATERFALL,
    PASSES,
    PER_LAYER,
    TRACED_PASSES,
    WORKLOADS,
    median,
)

#: a pass that is still running this long after its budget is killed
PASS_GRACE = 30.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (exit code 1, no JSON)."""


def child_environment() -> dict:
    """The child's environment: the program's sources on ``PYTHONPATH``."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise BenchmarkError(f"the program's sources are missing: {source}/repro")
    env = dict(os.environ)
    paths = [str(source), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_pass(workload: str, seed: int, pass_index: int, seconds: float, trace: bool) -> dict:
    """One child process: its cold start, its trials, its layer replays."""
    command = [
        sys.executable, "-u", "-m", "benchmarks.ledger.child",
        "--workload", workload, "--seed", str(seed),
        "--pass-index", str(pass_index), "--seconds", f"{seconds:.3f}",
        "--trace", str(int(trace)),
    ]
    result = {"setup_s": None, "trials": [], "layers": {}, "spans": [], "rss_mb": None}
    # the cold start sits between two runs of the host-speed kernel, like a
    # trial: this one, and the child's first (its ``host`` line)
    before = spin()
    spawned = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_environment(), stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(seconds + PASS_GRACE, process.kill)
    watchdog.start()
    try:
        for line in process.stdout:
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            event = record.get("event")
            if event == "ready":
                setup = time.perf_counter() - spawned
                result["ready"] = record
            elif event == "host":
                result["setup_s"] = at_reference_speed(
                    setup, (before + record["spin_ms"]) / 2
                )
            elif event == "trial":
                result["trials"].append(record)
            elif event == "layers":
                result["layers"] = record["values"]
            elif event == "spans":
                result["spans"] = record["spans"]
            elif event == "done":
                result["rss_mb"] = record["rss_mb"]
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
        process.stdout.close()
        code = process.wait()
    if code != 0 or result["rss_mb"] is None:
        raise BenchmarkError(
            f"{workload} pass {pass_index}: child exited with code {code}"
        )
    return result


def measure(workloads, seed: int, seconds: float, trace: bool) -> dict[str, list[dict]]:
    """Every pass of every workload, the workloads interleaved pass by pass."""
    passes = TRACED_PASSES if trace else PASSES
    results: dict[str, list[dict]] = {name: [] for name in workloads}
    for pass_index in range(passes):
        for name in workloads:
            results[name].append(
                run_pass(name, seed, pass_index, seconds / passes, trace)
            )
    return results


def _counts(passes: list[dict]) -> tuple[list[dict], int, int, bool]:
    trials = [trial for result in passes for trial in result["trials"]]
    good = [trial for trial in trials if trial["ok"]]
    warm = all(result["ready"]["warm_up_ok"] for result in passes)
    return good, len(trials), len(trials) - len(good), warm


def _tx_per_packet(good: list[dict]) -> float:
    return sum(t["transmitted"] for t in good) / sum(t["data_packets"] for t in good)


def trial_at_reference_speed(trial: dict) -> tuple[float, float]:
    """(wall, CPU) seconds of one trial on a host of the reference speed.

    Only the CPU seconds are scaled; the seconds the trial spent asleep --
    pacer, timers, the join window -- do not depend on the host.
    """
    cpu = at_reference_speed(trial["cpu"], trial["spin_ms"])
    return max(0.0, trial["wall"] - trial["cpu"]) + cpu, cpu


def end_to_end(workload: str, passes: list[dict]) -> dict:
    good, attempted, failed, warm = _counts(passes)
    if not good:
        raise BenchmarkError(f"{workload}: no trial passed verification")
    scaled = [(trial["work"], *trial_at_reference_speed(trial)) for trial in good]
    values = {
        "work_per_s": median(work / wall for work, wall, _ in scaled),
        "cpu_us_per_work": median(cpu / work * 1e6 for work, _, cpu in scaled),
        "tx_per_packet": _tx_per_packet(good),
        "peak_rss_mb": max(result["rss_mb"] for result in passes),
        "setup_s": median(result["setup_s"] for result in passes),
    }
    return _result(values, END_TO_END, attempted, failed, warm)


def per_layer(workload: str, passes: list[dict]) -> dict:
    good, attempted, failed, warm = _counts(passes)
    traced = [t for t in good if t["traced"]]
    untraced = [t for t in good if not t["traced"]]
    if not traced or not untraced:
        raise BenchmarkError(f"{workload}: the traced run needs both kinds of trial")
    values = dict.fromkeys(PER_LAYER, 0.0)
    # a trial's read-outs: median over the traced trials of every pass
    for name in {key for trial in traced for key in trial["layer"]}:
        values[name] = median(
            t["layer"][name] for t in traced if name in t["layer"]
        )
    # a layer's replay: median over the passes that ran it
    for name in {key for result in passes for key in result["layers"]}:
        values[name] = median(
            r["layers"][name] for r in passes if name in r["layers"]
        )
    values["obs.trace_overhead_share"] = (
        median(t["wall"] for t in traced) / median(t["wall"] for t in untraced) - 1.0
    )
    spins = [t["spin_ms"] for result in passes for t in result["trials"]]
    values["host.spin_ms"] = median(spins)
    first, third = np.quantile(spins, [0.25, 0.75])
    values["host.spin_iqr"] = (third - first) / median(spins)
    values["host.nproc"] = os.cpu_count() or 0
    values["host.loadavg"] = os.getloadavg()[0]
    closed_form = passes[0]["ready"]["em_closed_form"]
    values["analysis.em_closed_form"] = closed_form
    values["analysis.em_rel_err"] = abs(_tx_per_packet(good) - closed_form) / closed_form
    fetches = [d for t in good for d in t["detail"].get("fetch_durations", ())]
    if fetches:
        values["net.fetches"] = len(fetches)
        values["net.fetch_tail_ratio"] = np.quantile(fetches, 0.85) / median(fetches)
        values["net.residual_share"] = 1.0 - sum(values[n] for n in NET_WATERFALL)
    spans = [span for result in passes for span in result["spans"]]
    target = HERE / "out" / f"spans-{workload}.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(spans))
    return _result(values, PER_LAYER, attempted, failed, warm)


def _result(values: dict, units: dict, attempted: int, failed: int, warm: bool) -> dict:
    return {
        "correct": failed == 0 and warm,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        passes = measure([args.workload], args.seed, args.seconds, bool(args.trace))
        summarize = per_layer if args.trace else end_to_end
        result = summarize(args.workload, passes[args.workload])
    except BenchmarkError as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
