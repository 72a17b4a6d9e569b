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


class TestCliCampaignMode:
    def test_campaign_success_exit_zero(self, capsys, tmp_path):
        journal = tmp_path / "cli.jsonl"
        csv_dir = tmp_path / "csv"
        code = main(
            [
                "fig05",
                "--jobs",
                "1",
                "--journal",
                str(journal),
                "--csv",
                str(csv_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "fig05" in out
        assert journal.exists()
        assert (csv_dir / "fig05.csv").read_text().startswith(
            "figure,series,x,y,stderr"
        )

    def test_campaign_failure_exits_nonzero(self, capsys):
        # a 1ms budget cannot even spawn the worker: guaranteed timeout,
        # no retries -> quarantine -> degraded -> exit 1
        code = main(["fig05", "--timeout", "0.001", "--retries", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "DEGRADED" in captured.out
        assert "failed figures: fig05" in captured.err

    def test_resume_completes_finished_campaign(self, capsys, tmp_path):
        journal = tmp_path / "resume.jsonl"
        assert main(["fig05", "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(["--resume", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out
        assert "resumed" in out

    def test_resume_rejects_figure_ids(self, capsys, tmp_path):
        assert main(["fig05", "--resume", str(tmp_path / "j.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "task list from the journal" in err

    def test_fig13_is_rendered_inline_in_campaign_mode(self, capsys):
        assert main(["fig13", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "timing of the different approaches" in out


class TestCliSeed:
    def test_seed_reaches_the_runner_in_every_mode(self, capsys, tmp_path):
        def fig15_csv(*flags):
            out_dir = tmp_path / "_".join(flags)
            argv = ["fig15", "--mc-replications", "8", "--csv", str(out_dir)]
            assert main([*argv, *flags]) == 0
            return (out_dir / "fig15.csv").read_bytes()

        sequential = fig15_csv("--seed", "7")
        assert sequential != fig15_csv("--seed", "0")
        # one set of bytes per seed: supervised worker == in-process run
        assert sequential == fig15_csv("--seed", "7", "--jobs", "1")
