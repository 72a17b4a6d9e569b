"""Integration: telemetry across process boundaries, end to end.

The acceptance contract for the observability layer: a campaign's merged
registry reports packet/NAK/retransmission counters that are (a)
bit-identical however many workers the campaign used, and (b) identical
to the ``TransferReport`` values computed inside the workers.  Sharded
Monte-Carlo makes the same promise for replication counts.
"""

import json

import pytest

from repro import obs
from repro.campaign import CampaignRunner, callable_task, deserialize_result
from repro.experiments.__main__ import main
from repro.obs import labels_key
from repro.obs.export import read_telemetry

SEEDS = (0, 1, 2, 3)


def _transfer_campaign(tmp_path, jobs, journal=None):
    tasks = [
        callable_task(
            f"cell{seed}", "repro.campaign.testing:transfer_cell", seed=seed
        )
        for seed in SEEDS
    ]
    runner = CampaignRunner(
        tasks,
        jobs=jobs,
        timeout=120.0,
        journal_path=journal,
        seed=0,
        capture_metrics=True,
    )
    report = runner.run()
    assert report.status == "ok"
    return runner


def _transfer_counters(snapshot):
    return {
        key: value
        for key, value in snapshot.counter_values().items()
        if key[0].startswith("transfer.")
    }


class TestJobsInvariance:
    def test_serial_and_parallel_merge_identically(self, tmp_path):
        """--jobs 1 and --jobs 4 must produce the same merged registry
        for every deterministic counter, not approximately but exactly."""
        serial = _transfer_campaign(tmp_path, jobs=1)
        parallel = _transfer_campaign(tmp_path, jobs=4)
        a = serial.worker_metrics.counter_values()
        b = parallel.worker_metrics.counter_values()
        assert a == b
        assert any(name.startswith("transfer.") for name, _ in a)
        assert any(name.startswith("rse.") for name, _ in a)

    def test_counters_match_transfer_reports(self, tmp_path):
        """The merged telemetry must agree with the reports the same
        workers computed — one source of truth, two readouts."""
        runner = _transfer_campaign(tmp_path, jobs=2)
        reports = [
            deserialize_result(runner.results[f"cell{seed}"])
            for seed in SEEDS
        ]
        merged = runner.worker_metrics
        np_labels = labels_key({"protocol": "np"})
        expected = {
            "transfer.data_sent": sum(r["data_sent"] for r in reports),
            "transfer.parity_sent": sum(r["parity_sent"] for r in reports),
            "transfer.naks_received": sum(r["naks_received"] for r in reports),
            "transfer.data_packets": sum(r["total_data_packets"] for r in reports),
            "transfer.payload_bytes": sum(r["payload_bytes"] for r in reports),
            "transfer.runs": len(reports),
        }
        counters = merged.counter_values()
        for name, value in expected.items():
            assert counters[(name, np_labels)] == value, name

    def test_resume_preloads_journaled_metrics(self, tmp_path):
        """A resumed campaign's rollup equals the uninterrupted run's:
        worker snapshots ride the journal, not process memory."""
        journal = tmp_path / "metrics.jsonl"
        original = _transfer_campaign(tmp_path, jobs=2, journal=journal)
        resumed = CampaignRunner.resume(journal)
        assert resumed.capture_metrics  # flag recorded in campaign_start
        resumed.run()  # everything already done; replays the journal
        assert (
            resumed.worker_metrics.counter_values()
            == original.worker_metrics.counter_values()
        )


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

    def test_metrics_out_campaign_and_status(self, capsys, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        path = tmp_path / "metrics.ndjson"
        with obs.capture(enabled=False):
            assert main([
                "fig03", "--jobs", "1",
                "--journal", str(journal), "--metrics-out", str(path),
            ]) == 0
        capsys.readouterr()
        # the file folds back exactly, histograms included
        snapshot, _ = read_telemetry(path)
        written = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(snapshot) == len(written)
        kinds = {entry["type"] for entry in snapshot.to_json()["instruments"]}
        assert "histogram" in kinds
        assert any(
            name == "span.duration_seconds" for name, _ in snapshot._entries
        )

        assert main(["--status", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "finished" in out and "succeeded=1" in out

    def test_status_unreadable_journal_exits_2(self, capsys, tmp_path):
        assert main(["--status", str(tmp_path / "missing.jsonl")]) == 2
        assert "cannot read journal" in capsys.readouterr().err

    def test_disabled_by_default(self, capsys):
        """Without --metrics-out the switch stays off end to end."""
        with obs.capture(enabled=False):
            assert main(["fig03"]) == 0
            assert not obs.is_enabled()
            assert len(obs.snapshot()) == 0
        capsys.readouterr()
