"""GF-kernel shootout on the paper's encode workload.

One 64 KiB FEC block = ``k = 64`` data packets of 1 KiB, ``h = 10``
parities (fig01's 0.15-redundancy operating point), encoded in batches of
16 blocks — the sender-side pre-encoding path.  The encode product is
measured on ``GaloisField.matmul`` (the ``packed`` kernel) and on
``GaloisField.matmul_reference`` (PR 1's ``numpy`` heuristic); the
committed trajectory (``BENCH_gf_backends.json``) records packets/s for
each plus the headline ratio, and the gate pins the kernel at >= 2x the
reference on this shape.

:func:`test_kernel_grid_never_loses_to_the_oracle` is the condition under
which ``packed`` is allowed to be the only kernel (ROADMAP item 1d): on
every product shape the perf ledger's workloads execute, in every field,
it must not be slower than the reference.

Every ``record_trajectory`` call self-verifies its append (the empty-
trajectory regression), and :func:`test_trajectory_record_is_nonempty`
additionally proves this module's own record landed with the metrics the
gates used.

Run with ``pytest benchmarks/test_perf_gf_backends.py --benchmark-only``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from benchmarks._trajectory import BENCH_DIR, record_trajectory
from repro.fec.rse import InverseCache, RSECodec
from repro.galois.field import GF16, GF256, GF65536, GaloisField

K = 64               # data packets per 64 KiB block
H = 10               # fig01's ~0.15 redundancy point
PACKET_SIZE = 1024   # the paper's 1 KB packets
BATCH = 16           # blocks per encode_blocks call
MIN_DURATION = 0.25

#: The perf gate: the packed-lane kernel must beat the PR-1 reference
#: heuristic by at least this factor on the 64 KiB-block encode.
PACKED_FLOOR = 2.0

#: The two products compared, under the names the trajectory has always
#: recorded them by.
PRODUCTS = {
    "numpy": GaloisField.matmul_reference,
    "packed": GaloisField.matmul,
}

#: This module's own workload as a kernel product.
SHOOTOUT_SHAPE = ((H, K), (BATCH, K, PACKET_SIZE))
#: ``(r, s) @ (B, s, c)`` products of the ledger workloads (codec_k100's
#: encode, decode and decode-plan products; the net/sim encode, pre-encode
#: and 1-3-row repair products: a round's parities and a receiver's
#: erasures, 1-2 rows over k in {7, 8}), the inverse-heavy square case
#: and the shoot-out shape.
GRID_SHAPES = [
    ((20, 100), (8, 100, 1024)),
    ((20, 100), (1, 100, 1024)),
    ((20, 20), (1, 20, 80)),
    ((16, 8), (320, 8, 1024)),
    ((16, 8), (1, 8, 1024)),
    ((32, 7), (1, 7, 1024)),
    ((3, 8), (1, 8, 1024)),
    ((2, 8), (1, 8, 1024)),
    ((1, 8), (1, 8, 1024)),
    ((2, 7), (1, 7, 1024)),
    ((1, 7), (1, 7, 1024)),
    ((1, 7), (1, 7, 64)),
    ((8, 8), (1, 8, 256)),
    ((100, 100), (1, 100, 100)),
    SHOOTOUT_SHAPE,
]
#: ``packed`` may take at most this multiple of the oracle's median time
#: on any grid shape ...
GRID_CEILING = 1.10
#: ... and must beat it by PACKED_FLOOR on these (m = 8).
GRID_MUST_WIN = [
    ((20, 100), (8, 100, 1024)),
    ((16, 8), (320, 8, 1024)),
    SHOOTOUT_SHAPE,
]
GRID_CALLS = 9


def _blocks() -> np.ndarray:
    rng = np.random.default_rng(0x6F6B)
    return rng.integers(
        0, 256, size=(BATCH, K, PACKET_SIZE)
    ).astype(np.uint8)


def _timed_loop(fn, work_per_call: int, min_duration: float = MIN_DURATION):
    """Run ``fn`` until ``min_duration`` elapsed; returns work items/second."""
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_duration:
            return calls * work_per_call / elapsed


def _encode_rates() -> dict[str, float]:
    """Data packets/s per product on the 64 KiB-block encode."""
    batch = _blocks()
    codec = RSECodec(K, H, inverse_cache=InverseCache())
    parity_rows = codec.generator[K:]
    expected = codec.encode_blocks(batch)
    rates: dict[str, float] = {}
    for name, product in PRODUCTS.items():
        # a benchmark of a wrong kernel is worse than no benchmark
        assert np.array_equal(
            product(codec.field, parity_rows, batch), expected
        ), f"{name!r} product diverged from the codec on the bench shape"
        rates[name] = _timed_loop(
            lambda product=product: product(codec.field, parity_rows, batch),
            BATCH * K,
        )
    return rates


def _record(rates: dict[str, float]) -> float:
    speedup = rates["packed"] / rates["numpy"]
    metrics = {
        f"encode_pps_{name}": rate for name, rate in sorted(rates.items())
    }
    metrics["packed_speedup_x"] = speedup
    metrics["block_kib"] = K * PACKET_SIZE // 1024
    record_trajectory("gf_backends", metrics)
    return speedup


@pytest.mark.benchmark(group="gf-backends")
def test_backend_encode_shootout(benchmark):
    rates = benchmark.pedantic(_encode_rates, rounds=1, iterations=1)
    speedup = _record(rates)
    assert speedup >= PACKED_FLOOR, (
        f"packed encode speedup {speedup:.2f}x is below the "
        f"{PACKED_FLOOR}x floor on the 64 KiB-block workload"
    )


def test_smoke_speedup_without_benchmark_plugin():
    """Plugin-free gate (used by CI): packed >= 2x oracle."""
    rates = _encode_rates()
    speedup = _record(rates)
    assert speedup >= PACKED_FLOOR, (
        f"packed encode speedup {speedup:.2f}x < {PACKED_FLOOR}x"
    )


def _median_ms(field, a, b3) -> list[float]:
    """Median call time per product, in ``PRODUCTS`` order.

    Calls are interleaved, in alternating order, so a host-speed change
    mid-measurement lands on both products alike; sub-millisecond products
    get more than GRID_CALLS calls (up to ~50 ms worth) because two runs
    of identical code differ by more than GRID_CEILING over nine of them.
    """
    start = time.perf_counter()
    field.matmul_reference(a, b3)
    first = time.perf_counter() - start
    calls = min(101, max(GRID_CALLS, int(0.05 / max(first, 1e-6))))
    names = list(PRODUCTS)
    times = {name: [] for name in names}
    for call in range(calls):
        for name in names[::-1] if call % 2 else names:
            start = time.perf_counter()
            PRODUCTS[name](field, a, b3)
            times[name].append(time.perf_counter() - start)
    return [1e3 * float(np.median(times[name])) for name in names]


def test_kernel_grid_never_loses_to_the_oracle():
    """``packed <= 1.10x`` the oracle on every ledger shape, m in {4, 8, 16}."""
    rng = np.random.default_rng(0x9A1D)
    metrics: dict[str, float] = {}
    failures: list[str] = []
    for field in (GF16, GF256, GF65536):
        for a_shape, b_shape in GRID_SHAPES:
            a = rng.integers(0, field.order, size=a_shape).astype(field.dtype)
            b3 = rng.integers(0, field.order, size=b_shape).astype(field.dtype)
            assert np.array_equal(
                field.matmul(a, b3), field.matmul_reference(a, b3)
            ), f"packed diverged on m={field.m} {a_shape}@{b_shape}"
            oracle_ms, packed_ms = _median_ms(field, a, b3)
            r, s = a_shape
            label = f"m{field.m}_{r}x{s}_at_{'x'.join(map(str, b_shape))}"
            metrics[f"grid_oracle_over_packed_{label}"] = oracle_ms / packed_ms
            if packed_ms > GRID_CEILING * oracle_ms:
                failures.append(
                    f"{label}: packed {packed_ms:.3f} ms vs oracle "
                    f"{oracle_ms:.3f} ms"
                )
            if (
                field is GF256
                and (a_shape, b_shape) in GRID_MUST_WIN
                and oracle_ms < PACKED_FLOOR * packed_ms
            ):
                failures.append(
                    f"{label}: only {oracle_ms / packed_ms:.2f}x, floor "
                    f"{PACKED_FLOOR}x"
                )
    record_trajectory("gf_backends", metrics)
    assert not failures, "\n".join(failures)


def test_trajectory_record_is_nonempty():
    """The committed trajectory must actually contain this bench's record.

    Guards the empty-trajectory failure mode end to end: a BENCH file that
    exists but whose history lost the current metrics (a merge gone wrong,
    a silently-skipped record call) fails here even if every timing gate
    above passed.
    """
    rates = _encode_rates()
    path = record_trajectory(
        "gf_backends", {"smoke_encode_pps_numpy": rates["numpy"]}
    )
    doc = json.loads(path.read_text())
    assert doc["bench"] == "gf_backends"
    assert doc["history"], "trajectory history is empty after recording"
    latest = doc["history"][-1]["metrics"]
    assert "smoke_encode_pps_numpy" in latest
    assert any(
        key.startswith("encode_pps_") for key in latest
    ), "per-product rates missing from the trajectory record"
    assert (BENCH_DIR / "BENCH_gf_backends.json").exists()


def test_trajectory_self_verification_has_teeth(monkeypatch, tmp_path):
    """``record_trajectory`` must refuse to 'succeed' without an append."""
    from benchmarks import _trajectory

    monkeypatch.setattr(_trajectory, "BENCH_DIR", tmp_path)
    # a write that lands is fine...
    _trajectory.record_trajectory("scratch", {"value": 1.0})
    # ...but a verification against a vanished record must raise
    real_write = _trajectory.pathlib.Path.write_text

    def swallow(self, *args, **kwargs):
        if self.name.startswith("BENCH_"):
            return 0  # simulate a write that never lands
        return real_write(self, *args, **kwargs)

    monkeypatch.setattr(_trajectory.pathlib.Path, "write_text", swallow)
    (tmp_path / "BENCH_scratch2.json").unlink(missing_ok=True)
    with pytest.raises(AssertionError, match="no entry|did not survive"):
        _trajectory.record_trajectory("scratch2", {"value": 1.0})
