"""Command-line driver: regenerate paper figures as tables / CSV.

Examples::

    python -m repro.experiments --list
    python -m repro.experiments fig05 fig18
    python -m repro.experiments --all --csv results/

Transport mode (the real UDP transport; see :mod:`repro.net`) engages
when the first positional is ``serve`` or ``fetch``::

    python -m repro.experiments serve --bind 127.0.0.1:9000 --size 65536
    python -m repro.experiments fetch --connect 127.0.0.1:9000 --out f.bin

Figures run one after another in this process; ``--mc-jobs N`` fans each
simulated point's chunks out to N worker processes without changing a
bit of it.  The exit status is 0 only when every requested figure
produced a result — failed figure ids are printed and reflected in a
nonzero exit code.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.experiments.registry import (
    EXPERIMENTS,
    accepted_kwargs,
    experiment_ids,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce figures from 'Parity-Based Loss Recovery for "
        "Reliable Multicast Transmission' (SIGCOMM '97).",
    )
    parser.add_argument("figures", nargs="*", help="figure ids, e.g. fig05")
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write <DIR>/<figure>.csv for each figure run",
    )
    mc = parser.add_argument_group(
        "Monte-Carlo (figures 11/12/15/16; see repro.mc.sharded)"
    )
    mc.add_argument(
        "--seed",
        type=int,
        metavar="SEED",
        help="seed of every runner that draws at random (default: each "
        "runner's own); analytic and wall-clock figures ignore it",
    )
    mc.add_argument(
        "--mc-jobs",
        type=int,
        metavar="N",
        help="worker processes per simulated figure point "
        "(statistics identical to --mc-jobs 1)",
    )
    mc.add_argument(
        "--target-ci",
        type=float,
        metavar="HW",
        help="adaptive stopping: run each point until its 95%% CI "
        "half-width reaches HW (or the replication cap)",
    )
    mc.add_argument(
        "--mc-replications",
        type=int,
        metavar="N",
        help="replications per point (the cap, with --target-ci)",
    )
    from repro.sim.failure import GENERATOR_NAMES

    mc.add_argument(
        "--failure",
        choices=GENERATOR_NAMES,
        metavar="WORLD",
        help="availability world for the correlated-failure figure "
        f"(fail01): one of {{{', '.join(GENERATOR_NAMES)}}} "
        "(default: weibull)",
    )
    observability = parser.add_argument_group(
        "observability (repro.obs; see DESIGN.md section 12)"
    )
    observability.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="enable telemetry and write the merged metric registry to "
        "PATH on exit as exact NDJSON rows (repro.obs.read_telemetry reads "
        "them back); sharded-MC workers ship their metrics home for the "
        "merge",
    )
    return parser


def runner_kwargs(args: argparse.Namespace) -> dict:
    """Simulation flags as runner kwargs (only the ones actually given).

    Runners take their seed as ``rng``, except ``fail01``,
    ``abl_suppression`` and ``abl_validation``, which take ``seed``; the
    seed goes under both names and
    :func:`~repro.experiments.registry.accepted_kwargs` keeps the one a
    runner takes.
    """
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = kwargs["rng"] = args.seed
    if args.mc_jobs is not None:
        kwargs["mc_jobs"] = args.mc_jobs
    if args.target_ci is not None:
        kwargs["target_ci"] = args.target_ci
    if args.mc_replications is not None:
        kwargs["replications"] = args.mc_replications
    if args.failure is not None:
        kwargs["failure"] = args.failure
    return kwargs


def _render_fig13() -> None:
    # the timing diagram: rendered, not computed
    from repro.experiments.fig13_timing import render_timing_diagram

    print("fig13: timing of the different approaches")
    print(render_timing_diagram())
    print()


def _run_sequential(
    targets: list[str], csv_dir: pathlib.Path | None, runner_kwargs: dict
) -> int:
    """Run each figure in this process; nonzero exit if any failed."""
    failed: list[str] = []
    for figure_id in targets:
        if figure_id == "fig13":
            _render_fig13()
            continue
        start = time.perf_counter()
        try:
            result = run_experiment(
                figure_id,
                **accepted_kwargs(EXPERIMENTS[figure_id].runner, runner_kwargs),
            )
        except Exception as exc:  # noqa: BLE001 - collected and reported
            elapsed = time.perf_counter() - start
            print(
                f"[{figure_id} FAILED after {elapsed:.1f}s: "
                f"{type(exc).__name__}: {exc}]",
                file=sys.stderr,
            )
            failed.append(figure_id)
            continue
        elapsed = time.perf_counter() - start
        print(result.render_table())
        print(f"[{figure_id} completed in {elapsed:.1f}s]")
        print()
        if csv_dir is not None:
            path = csv_dir / f"{figure_id}.csv"
            path.write_text(result.to_csv())
            print(f"wrote {path}")
    if failed:
        print(f"failed figures: {' '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("serve", "fetch"):
        # transport verbs (repro.net): serve a payload / fetch one
        from repro.net.cli import main as net_main

        return net_main(argv)
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for figure_id in experiment_ids():
            experiment = EXPERIMENTS[figure_id]
            print(f"{figure_id}  [{experiment.method:11s}]  {experiment.paper_caption}")
        return 0

    if args.metrics_out:
        from repro import obs

        obs.enable()

    targets = experiment_ids() if args.all else args.figures
    if not targets:
        parser.print_usage()
        print("error: give figure ids, --all, or --list", file=sys.stderr)
        return 2
    unknown = [
        figure_id
        for figure_id in targets
        if figure_id != "fig13" and figure_id not in EXPERIMENTS
    ]
    if unknown:
        parser.print_usage()
        print(
            f"error: unknown experiment(s) {' '.join(unknown)}; "
            f"known: {' '.join(experiment_ids())}",
            file=sys.stderr,
        )
        return 2

    csv_dir = pathlib.Path(args.csv) if args.csv else None
    if csv_dir is not None:
        csv_dir.mkdir(parents=True, exist_ok=True)

    status = _run_sequential(targets, csv_dir, runner_kwargs(args))

    if args.metrics_out:
        from repro import obs

        written = obs.export_metrics(args.metrics_out)
        print(f"wrote {written} instruments to {args.metrics_out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
