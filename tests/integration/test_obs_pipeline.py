"""Integration: telemetry across process boundaries, end to end.

Sharded Monte-Carlo promises jobs-invariant replication counts, and the
experiments CLI's ``--metrics-out`` file folds back to the registry that
wrote it.
"""

import json

from repro import obs
from repro.experiments.__main__ import main


class TestShardedMC:
    def test_replication_counter_is_jobs_invariant(self):
        from repro.mc.sharded import run_sharded
        from repro.sim.loss import BernoulliLoss

        results, counters = [], []
        for jobs in (1, 2):
            with obs.capture():
                result = run_sharded(
                    "nofec",
                    BernoulliLoss(4, 0.05),
                    replications=64,
                    chunk_size=16,
                    jobs=jobs,
                    rng=7,
                )
                snap = obs.snapshot()
            results.append((result.mean, result.stderr))
            counters.append(
                snap.value("mc.replications", simulator="nofec")
            )
        assert results[0] == results[1]
        assert counters[0] == counters[1] == 64


class TestCli:
    def test_metrics_out_sequential(self, capsys, tmp_path):
        path = tmp_path / "metrics.ndjson"
        with obs.capture(enabled=False):
            assert main(["fig03", "--metrics-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"instruments to {path}" in out
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines and all(l["record"] == "metric" for l in lines)
        names = {l["name"] for l in lines}
        assert "span.duration_seconds" in names  # figure.fig03 span
        # the file folds back exactly, histograms included
        snapshot = obs.read_telemetry(path)
        assert len(snapshot) == len(lines)
        kinds = {entry["type"] for entry in snapshot.to_json()["instruments"]}
        assert "histogram" in kinds

    def test_disabled_by_default(self, capsys):
        """Without --metrics-out the switch stays off end to end."""
        with obs.capture(enabled=False):
            assert main(["fig03"]) == 0
            assert not obs.is_enabled()
            assert len(obs.snapshot()) == 0
        capsys.readouterr()
