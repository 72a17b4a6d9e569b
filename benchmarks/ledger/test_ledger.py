"""Tests of the ledger itself (not in tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.ledger import child, host, layers, run, spans, workloads
from benchmarks.ledger.metrics import END_TO_END, PER_LAYER, SPIN_REF_MS, WORKLOADS
from repro.net import ChaosPlan, FaultSchedule
from repro.resilience.errors import TransferStalled

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: the smoke runs shrink every workload to a few percent of its recorded size
TINY = 0.05


def tiny(name: str, seed: int = 0):
    workload = workloads.WORKLOADS[name](seed, 0, scale=TINY)
    workload.setup()
    return workload


# ----------------------------------------------------------------------
# BENCHMARK.json against the names the code emits
# ----------------------------------------------------------------------
def test_benchmark_json_names_the_metrics_the_code_emits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert list(WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


def test_benchmark_json_fits_the_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert SPEC["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60


# ----------------------------------------------------------------------
# tiny-size smoke run: every workload verifies, spans nest and add up
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_trial_spans_nest_and_add_up(name):
    workload = tiny(name)
    try:
        tracer = spans.Tracer(name)
        record = child.timed_trial(workload, 0, tracer)
    finally:
        workload.close()
    assert record["ok"], record["error"]
    assert record["work"] > 0 and record["data_packets"] > 0
    trial, *inner = tracer.spans
    assert trial["name"] == "trial" and trial["parent"] is None
    assert inner, "the trial made no call into the program"
    previous_end = trial["start"]
    for span in inner:
        assert span["parent"] == trial["id"] and span["trial"] == 0
        assert span["workload"] == name
        # children sit inside the trial, one after another
        assert previous_end <= span["start"] <= span["end"] <= trial["end"]
        previous_end = span["end"]
    children = sum(spans.duration(span) for span in inner)
    own = spans.self_time(trial, tracer.spans)
    assert own >= 0
    assert children + own == pytest.approx(spans.duration(trial), abs=1e-9)
    # the trial span is the timed region, give or take the capture set-up
    assert spans.duration(trial) == pytest.approx(record["wall"], abs=5e-3)
    assert record["layer"]["trial.wall_s"] == record["wall"]
    assert set(record["layer"]) <= set(PER_LAYER)


def test_socket_floor_delivers_every_frame_at_the_default_burst():
    """Four sinks at the default burst of 16: asyncio reads one datagram
    per socket per loop turn, so a floor that does not wait loses frames."""
    frames = [bytes(1048)] * 1200
    loop = asyncio.new_event_loop()
    try:
        seconds = loop.run_until_complete(layers._socket_floor(frames, 4, 16))
    finally:
        loop.close()
    assert 0 < seconds < 5


# ----------------------------------------------------------------------
# host speed: CPU seconds scale with the kernel, sleep does not
# ----------------------------------------------------------------------
def test_cpu_seconds_are_scaled_to_the_reference_host_and_sleep_is_not():
    trial = {"wall": 1.0, "cpu": 0.4, "spin_ms": 2 * SPIN_REF_MS}
    wall, cpu = run.trial_at_reference_speed(trial)
    assert cpu == pytest.approx(0.2)  # the host was half as fast
    assert wall == pytest.approx(0.6 + 0.2)  # 0.6 s asleep, kept as measured
    same = {"wall": 1.0, "cpu": 1.0, "spin_ms": SPIN_REF_MS}
    assert run.trial_at_reference_speed(same) == pytest.approx((1.0, 1.0))


def test_every_trial_of_a_pass_carries_the_kernel_time():
    workload = tiny("codec_k100")
    records: list[dict] = []
    child.run_pass(workload, 0.3, False, records.append, before=host.spin())
    assert len(records) >= 2
    assert all(record["spin_ms"] > 0 for record in records)


# ----------------------------------------------------------------------
# a bad transfer is counted, not raised
# ----------------------------------------------------------------------
def _run_untraced_pass(workload) -> list[dict]:
    records: list[dict] = []
    child.run_pass(workload, 0.0, False, records.append, before=host.spin())
    return records


def test_corrupted_payload_lands_in_failed(monkeypatch):
    real_fetch = workloads.fetch

    async def corrupting_fetch(*args, **kwargs):
        result = await real_fetch(*args, **kwargs)
        flipped = bytes([result.data[0] ^ 0xFF]) + result.data[1:]
        return dataclasses.replace(result, data=flipped)

    monkeypatch.setattr(workloads, "fetch", corrupting_fetch)
    workload = tiny("net_bulk")
    try:
        records = _run_untraced_pass(workload)
    finally:
        workload.close()
    assert records and not any(record["ok"] for record in records)
    assert "payload mismatch" in records[0]["error"]
    passes = [{"trials": records, "ready": {"warm_up_ok": True}}]
    good, attempted, failed, _ = run._counts(passes)
    assert (good, attempted, failed) == ([], len(records), len(records))
    with pytest.raises(run.BenchmarkError):
        run.end_to_end("net_bulk", passes)


def test_stalled_transfer_lands_in_failed(monkeypatch):
    async def stalling_fetch(*args, **kwargs):
        raise TransferStalled("stub: budget exhausted", None)

    monkeypatch.setattr(workloads, "fetch", stalling_fetch)
    workload = tiny("net_bulk")
    try:
        record = child.timed_trial(workload, 0)
    finally:
        workload.close()
    assert not record["ok"] and record["work"] == 0
    assert "TransferStalled" in record["error"]


def test_a_trial_that_raises_is_counted():
    class Broken(workloads.Workload):
        name = "broken"

        def trial(self, index, tracer):
            raise ZeroDivisionError("boom")

    record = child.timed_trial(Broken(0), 0)
    assert not record["ok"] and "ZeroDivisionError" in record["error"]


# ----------------------------------------------------------------------
# what must repeat exactly for a seed, and move with it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["sim_np", "mc_rounds"])
def test_tx_per_packet_is_exact_for_a_seed(name):
    def tx(seed: int) -> list[float]:
        workload = tiny(name, seed)
        records = [child.timed_trial(workload, index) for index in range(2)]
        assert all(record["ok"] for record in records)
        return [r["transmitted"] / r["data_packets"] for r in records]

    assert tx(3) == tx(3)
    assert tx(3) != tx(4)


def test_chaos_schedule_is_exact_for_a_seed():
    """The load generator: the drop verdict of the N-th datagram."""

    def drops(seed: int) -> list[bool]:
        sub = workloads.subseed(seed, 0, 0)
        loss = workloads.NetRepair.loss[0]
        schedule = FaultSchedule(ChaosPlan(seed=sub, loss=loss), "forward")
        return [schedule.decide(1048).drop for _ in range(2000)]

    assert drops(5) == drops(5)
    assert drops(5) != drops(6)
    assert 40 <= sum(drops(5)) <= 160  # 5% of 2000, give or take


def test_net_repair_sends_parities_and_stays_above_the_model():
    workload = workloads.NetRepair(0, 0, scale=0.25)
    workload.setup()
    try:
        record = child.timed_trial(workload, 0)
    finally:
        workload.close()
    assert record["ok"], record["error"]
    assert record["detail"]["chaos.dropped"] > 0
    assert record["transmitted"] > record["data_packets"]
    assert workload.em_closed_form > 1.0


# ----------------------------------------------------------------------
# the command itself, as the driver runs it
# ----------------------------------------------------------------------
def _run_command(directory, *arguments):
    return subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", *arguments],
        cwd=directory, capture_output=True, text=True, timeout=180,
    )


def test_command_prints_one_result_line():
    done = _run_command(
        ROOT, "--workload", "codec_k100", "--seed", "2", "--seconds", "1", "--trace", "0"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_command_prints_every_layer_and_writes_spans():
    done = _run_command(
        ROOT, "--workload", "net_bulk", "--seed", "2", "--seconds", "4", "--trace", "1"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == PER_LAYER
    # workload sanity: nothing sleeps, no parity is sent
    assert metrics["pacer.sleep_share"] < 0.02
    assert metrics["net.frames_tx.parity"] == 0
    assert metrics["net.frames_tx.data"] > 0
    assert metrics["sim.events"] == 0 and metrics["mc.replications"] == 0
    dumped = json.loads((HERE / "out" / "spans-net_bulk.json").read_text())
    assert {"id", "name", "start", "end", "parent", "workload", "trial"} == set(dumped[0])
    assert {"trial", "net.server.start", "net.fetch", "net.server.close"} <= {
        span["name"] for span in dumped
    }


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", "spans-*.json"),
    )
    done = _run_command(
        tmp_path, "--workload", "net_bulk", "--seed", "0", "--seconds", "1", "--trace", "0"
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
