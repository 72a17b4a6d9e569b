"""Batched-kernel speedup on the Figure-1 workload (k = 7, 20, 100; h = k).

Locks in the two performance claims of the batched codec layer:

* **encode**: the single-matmul :meth:`RSECodec.encode_blocks` beats the
  retained row-by-row scalar loop by >= 5x aggregate throughput across the
  Figure-1 sweep with 1 KB packets;
* **decode**: repeated erasure patterns — the multicast case, where every
  receiver behind the same lossy link misses the same packets — decode
  >= 3x faster than the scalar reference because the
  :class:`InverseCache` skips Gaussian elimination and the reconstruction
  is one batched matmul.  The cache-hit counters must prove the reuse.
* **decode, fresh pattern**: an ``InverseCache`` *miss* at the fig01 point
  ``rse(100, 20)`` costs <= 2x a hit, because the decode plan inverts only
  the ``20 x 20`` erased block, not the ``100 x 100`` submatrix.

Run with ``pytest benchmarks/test_perf_codec_batch.py --benchmark-only``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks._trajectory import record_trajectory
from repro.experiments.series import FigureResult, Series
from repro.fec.rse import InverseCache, RSECodec

GROUP_SIZES = (7, 20, 100)
PACKET_SIZE = 1024  # the paper's 1 KB packets
MIN_DURATION = 0.05
#: blocks per batched encode call; amortises per-call numpy overhead the
#: way the sender's pre-encoding path does
ENCODE_BATCH = 32


def _symbol_blocks(codec: RSECodec, n_blocks: int) -> np.ndarray:
    rng = np.random.default_rng(0xF16)
    return rng.integers(
        0, codec.field.order, size=(n_blocks, codec.k, PACKET_SIZE)
    ).astype(codec.field.dtype)


def _timed_loop(fn, work_per_call: int, min_duration: float = MIN_DURATION):
    """Run ``fn`` until ``min_duration`` elapsed; returns work items / second."""
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_duration:
            return calls * work_per_call / elapsed


def _encode_rates(k: int) -> tuple[float, float]:
    """(batched, scalar) encode rates in data packets per second."""
    codec = RSECodec(k, k, inverse_cache=InverseCache())
    batch = _symbol_blocks(codec, ENCODE_BATCH)
    single = batch[0]

    assert np.array_equal(
        codec.encode_blocks(batch)[0], codec.encode_symbols_scalar(single)
    ), "batched and scalar encodes diverged"

    batched = _timed_loop(lambda: codec.encode_blocks(batch), ENCODE_BATCH * k)
    scalar = _timed_loop(lambda: codec.encode_symbols_scalar(single), k)
    return batched, scalar


def _decode_setup(k: int):
    """A worst-case repeated pattern: all k data packets lost, decode from
    the k parities (the heaviest reconstruction Figure 1 measures)."""
    codec = RSECodec(k, k, inverse_cache=InverseCache())
    data = _symbol_blocks(codec, 1)[0]
    parities = codec.encode_symbols(data)
    received = {k + j: parities[j] for j in range(k)}
    expected = data
    return codec, received, expected


def _decode_rates(k: int) -> tuple[float, float, RSECodec]:
    """(cached-batched, scalar) decode rates in reconstructed packets/s."""
    codec, received, expected = _decode_setup(k)

    out = codec.decode_symbols(dict(received))  # warm the inverse cache
    for i in range(k):
        assert np.array_equal(out[i], expected[i]), "decode mismatch"

    cached = _timed_loop(lambda: codec.decode_symbols(dict(received)), k)
    scalar = _timed_loop(lambda: codec.decode_symbols_scalar(dict(received)), k)
    return cached, scalar, codec


def _aggregate_speedup(rates: dict[int, tuple[float, float]]) -> float:
    """Wall-clock speedup over the whole sweep, equal work at each k.

    Figure 1 encodes the same number of blocks at every configuration, so
    the sweep's total time is ``sum(work / rate)`` — the slow large-k
    configurations dominate, exactly as they dominate a real run.
    """
    fast_time = sum(1.0 / fast for fast, _slow in rates.values())
    slow_time = sum(1.0 / slow for _fast, slow in rates.values())
    return slow_time / fast_time


@pytest.mark.benchmark(group="codec-batch")
def test_batched_encode_speedup(benchmark, record_figure):
    def sweep():
        return {k: _encode_rates(k) for k in GROUP_SIZES}

    rates = benchmark.pedantic(sweep, rounds=1, iterations=1)

    result = FigureResult(
        figure_id="perf_codec_batch",
        title="Batched vs scalar RSE encode, Figure-1 workload (h = k)",
        x_label="k",
        y_label="rate [data packets/s]",
        notes=f"P = {PACKET_SIZE} bytes, GF(2^8), batch = {ENCODE_BATCH}",
        series=[
            Series(
                "encode batched",
                [float(k) for k in GROUP_SIZES],
                [rates[k][0] for k in GROUP_SIZES],
            ),
            Series(
                "encode scalar",
                [float(k) for k in GROUP_SIZES],
                [rates[k][1] for k in GROUP_SIZES],
            ),
        ],
    )
    record_figure(result)

    aggregate = _aggregate_speedup(rates)
    record_trajectory(
        "codec_batch",
        {
            "encode_speedup_x": aggregate,
            "encode_batched_pps_k100": rates[100][0],
            "encode_scalar_pps_k100": rates[100][1],
        },
    )
    assert aggregate >= 5.0, f"aggregate encode speedup {aggregate:.2f}x < 5x"
    # the big-k end is where the kernel earns its keep; it must never lose
    assert rates[100][0] > rates[100][1]


@pytest.mark.benchmark(group="codec-batch")
def test_cached_decode_speedup(benchmark):
    def sweep():
        return {k: _decode_rates(k) for k in GROUP_SIZES}

    rates = benchmark.pedantic(sweep, rounds=1, iterations=1)

    for k in GROUP_SIZES:
        _cached, _scalar, codec = rates[k]
        # the counters must prove the repeated pattern was served from cache
        assert codec.stats.decode_cache_misses == 1, (
            f"k={k}: expected exactly one Gaussian elimination, got "
            f"{codec.stats.decode_cache_misses}"
        )
        assert codec.stats.decode_cache_hits >= 5, (
            f"k={k}: only {codec.stats.decode_cache_hits} cache hits"
        )

    aggregate = _aggregate_speedup(
        {k: (cached, scalar) for k, (cached, scalar, _codec) in rates.items()}
    )
    record_trajectory(
        "codec_batch",
        {
            "decode_speedup_x": aggregate,
            "decode_cached_pps_k100": rates[100][0],
            "decode_scalar_pps_k100": rates[100][1],
        },
    )
    assert aggregate >= 3.0, f"aggregate decode speedup {aggregate:.2f}x < 3x"


def _miss_over_hit(k: int = 100, e: int = 20, patterns: int = 40) -> float:
    """Median cache-miss decode time over median cache-hit decode time,
    ``e`` erased data packets rebuilt from the ``e`` parities of rse(k, e);
    each fresh pattern is decoded twice (the miss, then its hit)."""
    codec = RSECodec(k, e, inverse_cache=InverseCache(maxsize=patterns))
    data = _symbol_blocks(codec, 1)[0]
    block = np.concatenate([data, codec.encode_symbols(data)])
    rng = np.random.default_rng(0xF16)
    miss_times, hit_times = [], []
    for _ in range(patterns):
        erased = set(rng.choice(k, size=e, replace=False).tolist())
        rows = {i: block[i] for i in range(k + e) if i not in erased}
        for times in (miss_times, hit_times):
            start = time.perf_counter()
            out = codec.decode_symbols(dict(rows))
            times.append(time.perf_counter() - start)
        assert all(np.array_equal(out[i], data[i]) for i in erased)
    # the counters must prove which decodes were which
    assert codec.stats.decode_cache_misses == patterns
    assert codec.stats.decode_cache_hits == patterns
    return float(np.median(miss_times) / np.median(hit_times))


def test_miss_decode_within_2x_of_hit():
    ratio = _miss_over_hit()
    record_trajectory("codec_batch", {"decode_miss_over_hit": ratio})
    assert ratio <= 2.0, f"miss decode costs {ratio:.2f}x a hit (> 2x)"


def test_smoke_speedup_without_benchmark_plugin():
    """Plugin-free smoke check (used by CI): one mid-size configuration."""
    k = 20
    batched, scalar = _encode_rates(k)
    assert batched > scalar, f"encode batched {batched:.0f} <= scalar {scalar:.0f}"
    cached, scalar_decode, codec = _decode_rates(k)
    assert cached > scalar_decode
    assert codec.stats.decode_cache_hits > 0
