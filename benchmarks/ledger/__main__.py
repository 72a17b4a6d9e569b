"""Print the ledger for a human: every workload, every metric, by name.

    PYTHONPATH=src python -m benchmarks.ledger [--seed N] [--trace] [--workload NAME]

The passes of the workloads are interleaved (pass 0 of each, then pass 1 of
each, ...), so each workload's samples are spread over the whole run.
"""

from __future__ import annotations

import argparse
import os
import sys

from benchmarks.ledger import run
from benchmarks.ledger.metrics import NET_WATERFALL, WORKLOADS

HOST_NOTE = (
    "closed loop, one client process, one asyncio loop, no threads, at most "
    "4 receiver sockets, loopback interface only"
)


def _print_result(workload: str, result: dict, trace: bool) -> None:
    metrics = result["metrics"]
    for name, entry in metrics.items():
        print(f"{workload:12s} {name:36s} {entry['value']:16.6g} {entry['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{workload:12s} {'failed_share':36s} {failed / attempted:16.6g} ratio"
        f"   (ops {attempted}, failed_ops {failed}, correct {result['correct']})"
    )
    if trace and workload.startswith("net_"):
        wall = metrics["trial.wall_s"]["value"]
        print(f"{workload:12s} waterfall of one traced trial ({wall:.4f} s):")
        for name in (*NET_WATERFALL, "net.residual_share"):
            share = metrics[name]["value"]
            print(
                f"{'':12s}   {name.removesuffix('_share'):24s} "
                f"{share * wall:9.4f} s {share:8.1%}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", action="store_true",
                        help="the traced run: per-layer metrics and span files")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="only this workload (repeatable)")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    print(f"perf ledger: {HOST_NOTE}; nproc={os.cpu_count()}, seed={args.seed}")
    summarize = run.per_layer if args.trace else run.end_to_end
    try:
        passes = run.measure(workloads, args.seed, args.seconds, args.trace)
        results = {name: summarize(name, passes[name]) for name in workloads}
    except run.BenchmarkError as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 1
    for name in workloads:
        _print_result(name, results[name], args.trace)
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
