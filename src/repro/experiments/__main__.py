"""Command-line driver: regenerate paper figures as tables / CSV.

Examples::

    python -m repro.experiments --list
    python -m repro.experiments fig05 fig18
    python -m repro.experiments --all --csv results/

Campaign mode (supervised, parallel, crash-safe; see
:mod:`repro.campaign`) engages whenever any of ``--jobs``, ``--timeout``,
``--retries``, ``--journal`` or ``--resume`` is given::

    python -m repro.experiments --all --jobs 4 --journal campaign.jsonl
    python -m repro.experiments --resume campaign.jsonl

Transport mode (the real UDP transport; see :mod:`repro.net`) engages
when the first positional is ``serve`` or ``fetch``::

    python -m repro.experiments serve --bind 127.0.0.1:9000 --size 65536
    python -m repro.experiments fetch --connect 127.0.0.1:9000 --out f.bin

Inspecting a campaign (read-only; see DESIGN.md section 17): ``--status``
prints the journal's state once, ``watch`` is the live view::

    python -m repro.experiments --status campaign.jsonl
    python -m repro.experiments watch --journal campaign.jsonl \
        --metrics 127.0.0.1:9200

Each task then runs in its own spawned process with a wall-clock budget
and a retry allowance; completed work is journaled so a killed campaign
resumes where it stopped.  The exit status is 0 only when every requested
figure produced a result — failed or quarantined figure ids are printed
and reflected in a nonzero exit code.
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
from repro.experiments.series import FigureResult


def _build_parser() -> argparse.ArgumentParser:
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
    campaign = parser.add_argument_group(
        "campaign mode (supervised subprocess execution)"
    )
    campaign.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="run figures as a campaign with N parallel workers",
    )
    campaign.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="per-task wall-clock budget (campaign mode; default 600)",
    )
    campaign.add_argument(
        "--retries",
        type=int,
        metavar="N",
        help="re-runs allowed per failed task before quarantine (default 1)",
    )
    campaign.add_argument(
        "--journal",
        metavar="PATH",
        help="append-only JSONL journal for crash-safe resume",
    )
    campaign.add_argument(
        "--resume",
        metavar="PATH",
        help="resume a campaign from its journal (skips completed tasks)",
    )
    mc = parser.add_argument_group(
        "Monte-Carlo (figures 11/12/15/16; see repro.mc.sharded)"
    )
    mc.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="SEED",
        help="figure seed forwarded to every simulation runner, in every "
        "mode (default 0)",
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
    from repro.fec.registry import codec_names

    mc.add_argument(
        "--codec",
        choices=codec_names(),
        metavar="NAME",
        help="erasure code for layered-FEC figures (11/15): one of "
        f"{{{', '.join(codec_names())}}}; non-default codecs clamp h onto "
        "their supported geometry (default: rse)",
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
        "them back); campaign and sharded-MC workers ship their metrics "
        "home for the merge",
    )
    observability.add_argument(
        "--status",
        metavar="PATH",
        help="print the current state of the campaign journal at PATH "
        "(read-only, works while a runner is live) and exit",
    )
    observability.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        help="campaign mode: serve live OpenMetrics on "
        "http://127.0.0.1:PORT/metrics while the campaign runs "
        "(0 picks a free port; implies telemetry capture)",
    )
    observability.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="campaign mode: append delta NDJSON telemetry (plus drift "
        "alerts) to PATH while the campaign runs (implies capture)",
    )
    return parser


def _mc_kwargs(args: argparse.Namespace) -> dict:
    """Monte-Carlo flags as runner kwargs (only the ones actually given)."""
    kwargs = {}
    if args.mc_jobs is not None:
        kwargs["mc_jobs"] = args.mc_jobs
    if args.target_ci is not None:
        kwargs["target_ci"] = args.target_ci
    if args.mc_replications is not None:
        kwargs["replications"] = args.mc_replications
    if args.codec is not None:
        kwargs["codec"] = args.codec
    if args.failure is not None:
        kwargs["failure"] = args.failure
    return kwargs


def _campaign_mode(args: argparse.Namespace) -> bool:
    return any(
        value is not None
        for value in (
            args.jobs,
            args.timeout,
            args.retries,
            args.journal,
            args.resume,
        )
    )


def _render_fig13() -> None:
    # the timing diagram: rendered, not computed
    from repro.experiments.fig13_timing import render_timing_diagram

    print("fig13: timing of the different approaches")
    print(render_timing_diagram())
    print()


def _write_csv(csv_dir: pathlib.Path, figure_id: str, result) -> None:
    path = csv_dir / f"{figure_id}.csv"
    path.write_text(result.to_csv())
    print(f"wrote {path}")


def _run_sequential(
    targets: list[str], csv_dir: pathlib.Path | None, runner_kwargs: dict
) -> int:
    """The classic in-process path; now failure-aware (nonzero exit)."""
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
            _write_csv(csv_dir, figure_id, result)
    if failed:
        print(f"failed figures: {' '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _run_campaign(
    args: argparse.Namespace,
    targets: list[str],
    csv_dir: pathlib.Path | None,
) -> int:
    from repro.campaign import (
        CampaignRunner,
        RetryPolicy,
        deserialize_result,
        tasks_from_registry,
    )

    capture = args.metrics_out is not None
    telemetry = {}
    if args.metrics_port is not None:
        telemetry["metrics_port"] = args.metrics_port
    if args.telemetry_out is not None:
        telemetry["telemetry_path"] = args.telemetry_out
    if args.resume:
        overrides = dict(telemetry)
        if args.jobs is not None:
            overrides["jobs"] = args.jobs
        if args.timeout is not None:
            overrides["timeout"] = args.timeout
        if args.retries is not None:
            overrides["retry"] = RetryPolicy(retries=args.retries)
        if capture:
            overrides["capture_metrics"] = True
        runner = CampaignRunner.resume(args.resume, **overrides)
    else:
        if "fig13" in targets:
            # rendered, not computed: satisfy it inline, supervise the rest
            _render_fig13()
            targets = [t for t in targets if t != "fig13"]
            if not targets:
                return 0
        tasks = tasks_from_registry(targets, seed=args.seed, **_mc_kwargs(args))
        runner = CampaignRunner(
            tasks,
            jobs=args.jobs if args.jobs is not None else 1,
            timeout=args.timeout if args.timeout is not None else 600.0,
            retry=RetryPolicy(
                retries=args.retries if args.retries is not None else 1
            ),
            journal_path=args.journal,
            seed=args.seed,
            campaign_id="experiments",
            capture_metrics=capture,
            **telemetry,
        )
    if runner.metrics_port is not None or runner.telemetry_path is not None:
        # the supervisor process records too (campaign.* instruments),
        # so the live exports cover both sides of the worker boundary
        from repro import obs

        obs.enable()
    report = runner.run()
    if capture:
        from repro import obs

        obs.merge_snapshot(runner.worker_metrics)
    print(report.render_table())
    if csv_dir is not None:
        for task_id, payload in sorted(runner.results.items()):
            result = deserialize_result(payload)
            if isinstance(result, FigureResult):
                _write_csv(csv_dir, task_id, result)
    if report.status != "ok":
        print(
            f"failed figures: {' '.join(report.quarantined)}", file=sys.stderr
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("serve", "fetch"):
        # transport verbs (repro.net): serve a payload / fetch one
        from repro.net.cli import main as net_main

        return net_main(argv)
    if argv and argv[0] == "watch":
        # live dashboard over a journal + metrics endpoint
        from repro.experiments.watch import main as watch_main

        return watch_main(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for figure_id in experiment_ids():
            experiment = EXPERIMENTS[figure_id]
            print(f"{figure_id}  [{experiment.method:11s}]  {experiment.paper_caption}")
        return 0

    if args.status:
        from repro.campaign import JournalError, campaign_status, render_status

        try:
            print(render_status(campaign_status(args.status)))
        except (OSError, JournalError) as exc:
            print(f"error: cannot read journal {args.status}: {exc}",
                  file=sys.stderr)
            return 2
        return 0

    if args.metrics_out:
        from repro import obs

        obs.enable()

    if args.resume:
        if args.figures or args.all:
            parser.print_usage()
            print(
                "error: --resume takes its task list from the journal; "
                "do not pass figure ids",
                file=sys.stderr,
            )
            return 2
        targets: list[str] = []
    else:
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

    if _campaign_mode(args):
        status = _run_campaign(args, targets, csv_dir)
    else:
        status = _run_sequential(
            targets, csv_dir, {**_mc_kwargs(args), "rng": args.seed}
        )

    if args.metrics_out:
        from repro import obs

        written = obs.export_metrics(args.metrics_out)
        print(f"wrote {written} instruments to {args.metrics_out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
