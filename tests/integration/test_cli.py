"""Integration: the `python -m repro.experiments` command-line driver."""

import pathlib

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out
        assert "fig18" in out
        assert "analysis" in out and "simulation" in out

    def test_single_figure(self, capsys):
        assert main(["fig05"]) == 0
        out = capsys.readouterr().out
        assert "layered" in out
        assert "integrated" in out
        assert "completed in" in out

    def test_multiple_figures(self, capsys):
        assert main(["fig17", "fig18"]) == 0
        out = capsys.readouterr().out
        assert "fig17" in out and "fig18" in out

    def test_csv_output(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        assert main(["fig05", "--csv", str(out_dir)]) == 0
        csv_path = out_dir / "fig05.csv"
        assert csv_path.exists()
        content = csv_path.read_text()
        assert content.startswith("figure,series,x,y,stderr")
        assert "fig05,integrated" in content

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "figure ids" in err

    def test_unknown_figure_is_usage_error(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "fig99" in err

    def test_unknown_figure_among_valid_ones_is_usage_error(self, capsys):
        assert main(["fig05", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "fig05" not in err.split("known:")[0]


class TestCliFailureExit:
    """Any failed figure must surface as a nonzero exit + printed ids."""

    def test_sequential_failure_exits_nonzero(self, capsys, monkeypatch):
        import repro.experiments.__main__ as cli

        def boom(figure_id):
            raise RuntimeError("synthetic figure failure")

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert main(["fig05"]) == 1
        err = capsys.readouterr().err
        assert "fig05 FAILED" in err
        assert "RuntimeError: synthetic figure failure" in err
        assert "failed figures: fig05" in err

    def test_sequential_partial_failure_still_runs_the_rest(
        self, capsys, monkeypatch
    ):
        import repro.experiments.__main__ as cli
        from repro.experiments.registry import run_experiment

        def boom_on_fig18(figure_id):
            if figure_id == "fig18":
                raise RuntimeError("synthetic")
            return run_experiment(figure_id)

        monkeypatch.setattr(cli, "run_experiment", boom_on_fig18)
        assert main(["fig18", "fig05"]) == 1
        captured = capsys.readouterr()
        assert "failed figures: fig18" in captured.err
        # the healthy figure still ran and printed its table
        assert "fig05" in captured.out and "completed in" in captured.out


class TestCliSeed:
    def test_seed_reaches_the_runner_in_every_mode(self, capsys, tmp_path):
        def fig15_csv(*flags):
            out_dir = tmp_path / "_".join(flags)
            argv = ["fig15", "--mc-replications", "8", "--csv", str(out_dir)]
            assert main([*argv, *flags]) == 0
            return (out_dir / "fig15.csv").read_bytes()

        sequential = fig15_csv("--seed", "7")
        assert sequential != fig15_csv("--seed", "0")

    #: runners that are not analytic but draw nothing at random
    UNSEEDED = {
        "fig01": "wall-clock codec rates",
        "abl_symbol_size": "wall-clock codec rates",
        "abl_proactive": "closed forms",
    }

    def test_every_stochastic_runner_takes_the_seed(self):
        from repro.experiments.__main__ import build_parser, runner_kwargs
        from repro.experiments.registry import EXPERIMENTS, accepted_kwargs

        kwargs = runner_kwargs(build_parser().parse_args(["--seed", "5"]))
        assert runner_kwargs(build_parser().parse_args([])) == {}
        for figure_id, experiment in sorted(EXPERIMENTS.items()):
            if experiment.method == "analysis":
                continue
            taken = accepted_kwargs(experiment.runner, kwargs)
            if figure_id in self.UNSEEDED:
                assert taken == {}, figure_id
            else:
                assert list(taken.values()) == [5], figure_id

    def test_fail01_table_moves_with_the_seed(self, capsys):
        def table(*flags):
            assert main(["fail01", *flags]) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if "completed" not in line]

        assert table() != table("--seed", "1")
