"""Sharded-MC performance: parallel speedup and bounded streaming memory.

Locks in the two performance claims of the sharded execution layer
(:mod:`repro.mc.sharded`):

* **speedup** — on a Figure-11-shaped workload (layered FEC over a deep
  shared-loss tree) ``jobs=4`` completes >= 3x faster than the inline
  path, *including* the cost of spawning the pool workers.  Needs at
  least 4 usable cores, so the check skips on smaller hosts (CI runs it
  on 4-vCPU runners) — correctness of the fan-out is covered by the
  regular test suite everywhere.
* **memory** — the streaming accumulator keeps peak allocation flat as
  the replication count grows; a 16x longer run may not allocate more
  than a small constant factor over the short one.

Run with ``pytest benchmarks/test_perf_mc_sharded.py``.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import pytest

from benchmarks._trajectory import record_trajectory
from repro.mc import run_sharded
from repro.sim.loss import BernoulliLoss, FullBinaryTreeLoss

#: Figure-11 shape: layered FEC (7+1) over shared loss on a deep tree.
DEPTH = 13  # 8192 receivers
PARAMS = {"k": 7, "h": 1}
REPLICATIONS = 8192
JOBS = 4
MIN_SPEEDUP = 3.0


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _timed_run(**kwargs) -> tuple[float, object]:
    model = FullBinaryTreeLoss(DEPTH, 0.01)
    start = time.perf_counter()
    result = run_sharded(
        "layered",
        model,
        params=PARAMS,
        replications=REPLICATIONS,
        rng=0xF1611,
        **kwargs,
    )
    return time.perf_counter() - start, result


@pytest.mark.benchmark(group="mc-sharded")
def test_jobs4_speedup_on_fig11_workload():
    cores = _usable_cores()
    if cores < JOBS:
        pytest.skip(
            f"needs >= {JOBS} usable cores for a meaningful speedup "
            f"measurement, host has {cores}"
        )
    # one chunk per worker: all four spawns happen concurrently, so the
    # measured time charges the fan-out its real startup cost exactly once
    chunk = REPLICATIONS // JOBS
    serial_time, serial = _timed_run(chunk_size=chunk)
    parallel_time, parallel = _timed_run(chunk_size=chunk, jobs=JOBS)

    # same seeds, same chunks -> the runs must agree bit for bit
    assert (parallel.mean, parallel.stderr, parallel.replications) == (
        serial.mean,
        serial.stderr,
        serial.replications,
    )
    speedup = serial_time / parallel_time
    record_trajectory(
        "mc_sharded",
        {
            "jobs4_speedup_x": speedup,
            "inline_seconds": serial_time,
            "jobs4_seconds": parallel_time,
        },
    )
    print(
        f"\nfig11 workload: inline {serial_time:.1f}s, "
        f"jobs={JOBS} {parallel_time:.1f}s -> {speedup:.2f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"jobs={JOBS} speedup {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"(inline {serial_time:.1f}s, parallel {parallel_time:.1f}s)"
    )


def _peak_bytes(replications: int) -> int:
    model = BernoulliLoss(64, 0.02)
    tracemalloc.start()
    tracemalloc.reset_peak()
    run_sharded(
        "layered",
        model,
        params=PARAMS,
        replications=replications,
        rng=3,
        chunk_size=64,
    )
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_streaming_memory_is_bounded_in_replications():
    """Peak memory must track the chunk size, not the replication count."""
    _peak_bytes(64)  # warm import/cache allocations out of the comparison
    small = _peak_bytes(256)
    large = _peak_bytes(256 * 16)
    print(
        f"\npeak: {small / 1e6:.2f} MB @ 256 reps, "
        f"{large / 1e6:.2f} MB @ {256 * 16} reps"
    )
    record_trajectory(
        "mc_sharded",
        {
            "peak_mb_256_reps": small / 1e6,
            "peak_mb_4096_reps": large / 1e6,
        },
    )
    # a materialising implementation would grow ~16x here; the streaming
    # path re-uses one chunk buffer + an O(1) accumulator.  Allow 2x for
    # allocator noise and numpy scratch.
    assert large <= 2 * small + 1_000_000, (
        f"peak grew from {small} to {large} bytes over a 16x longer run"
    )
