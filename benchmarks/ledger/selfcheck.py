"""Does the ledger repeat?  Two sets of runs of the same code, compared.

    python3 benchmarks/ledger/selfcheck.py [--runs 10] [--seconds S] > NOISE.md

Each set is ``--runs`` full runs of every workload, every run on its own
seed, the workloads interleaved run by run.  For every (end-to-end metric,
workload) pair it prints both medians, the relative gap between them, each
set's spread (the distance between the first and third quartile of the set's
values, over its median) and the bound from ``BENCHMARK.json``.  A gap or a
spread (``setup_s`` is exempt from the spread rule) over the bound fails the
check; over a third of the bound it is marked, because that workload then
needs more trials, not a looser bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def one_run(command, workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: failed trials: {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 3)")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first run")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = [entry["name"] for entry in spec["workloads"]]
    started = time.time()
    sets = []
    for offset in (0, args.runs):
        values: dict = {}
        for run_index in range(args.runs):
            seed = args.seed + offset + run_index
            for workload in workloads:
                metrics = one_run(spec["command"], workload, seed, seconds)
                for name, value in metrics.items():
                    values.setdefault((workload, name), []).append(value)
                print(f"set {len(sets)} seed {seed} {workload}", file=sys.stderr)
        sets.append(values)

    print("# Run-to-run noise of the ledger")
    print()
    print(
        f"`selfcheck.py --runs {args.runs}`: two sets of {args.runs} runs of the "
        f"same code, {seconds} s each, seeds {args.seed}..{args.seed + 2 * args.runs - 1}, "
        f"{(time.time() - started) / 60:.0f} min in all.  `gap` is the second "
        "median against the first, `spread` is (Q3 - Q1) / median within a set; "
        "`!` marks a value over a third of the bound, `FAIL` one over the bound."
    )
    print()
    print("| workload | metric | median A | median B | gap | spread A | spread B | bound | |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---|")
    failed = False
    for entry in spec["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        for workload in workloads:
            first, second = (values[(workload, name)] for values in sets)
            gap = statistics.median(second) / statistics.median(first) - 1.0
            spreads = (spread(first), spread(second))
            gated = [abs(gap)] if name == "setup_s" else [abs(gap), *spreads]
            verdict = ""
            if max(gated) > bound / 3:
                verdict = "!"
            if max(gated) > bound:
                verdict, failed = "FAIL", True
            print(
                f"| {workload} | {name} | {statistics.median(first):.6g} | "
                f"{statistics.median(second):.6g} | {gap:+.2%} | {spreads[0]:.2%} | "
                f"{spreads[1]:.2%} | {bound:.0%} | {verdict} |"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
