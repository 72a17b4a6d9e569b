"""The sharded MC engine: seed trees, shard invariance, adaptive stopping.

The acceptance property: for every simulator, one root seed produces
identical ``(mean, stderr, replications)`` however the replications are
split — any ``chunk_size``, any ``jobs`` count, any completion order.
Process fan-out itself is exercised once here (spawn is expensive); the
statistical agreement suite in ``tests/integration`` covers it at scale.
"""

from __future__ import annotations

import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mc import SIMULATORS, replication_rng, run_sharded
from repro.mc.sharded import _chunk_rngs, _plan_chunks, shard_cell
from repro.mc.streaming import StreamingMoments
from repro.sim.loss import (
    BernoulliLoss,
    GilbertLoss,
    loss_model_from_spec,
)

#: (simulator name, params) with geometry small enough for property runs.
CASES = [
    ("nofec", {}),
    ("layered", {"k": 4, "h": 1}),
    ("integrated_immediate", {"k": 4}),
    ("integrated_rounds", {"k": 4, "initial_parities": 1}),
]


def small_model() -> BernoulliLoss:
    return BernoulliLoss(n_receivers=3, p=0.1)


def key(result):
    return result.mean, result.stderr, result.replications


class TestSeedTree:
    def test_replication_streams_are_independent_of_split(self):
        # the stream for replication i depends only on (entropy, i)
        a = replication_rng(1234, (), 17).integers(0, 2**31, size=8)
        b = replication_rng(1234, (), 17).integers(0, 2**31, size=8)
        c = replication_rng(1234, (), 18).integers(0, 2**31, size=8)
        assert (a == b).all()
        assert (a != c).any()

    def test_matches_seedsequence_spawn(self):
        # random access must agree with the canonical spawn() walk of a
        # fresh default root (tests/unit/test_mc_seed_tree.py has the rest)
        spawned = [
            np.random.default_rng(child).bit_generator.state
            for child in np.random.SeedSequence(99).spawn(5)
        ]
        assert [
            replication_rng(99, (), i).bit_generator.state for i in range(5)
        ] == spawned
        assert [
            rng.bit_generator.state for rng in _chunk_rngs(99, (), 0, 5)
        ] == spawned

    def test_point_roots_with_spawn_keys_extend(self):
        # figure runners root points at SeedSequence(entropy, spawn_key=(p,));
        # replication i must then live at spawn_key=(p, i)
        root = np.random.SeedSequence(entropy=7, spawn_key=(42,))
        direct = np.random.default_rng(
            np.random.SeedSequence(entropy=7, spawn_key=(42, 3))
        ).integers(0, 2**31, size=4)
        via_helper = replication_rng(7, (42,), 3).integers(0, 2**31, size=4)
        assert (direct == via_helper).all()
        result_a = run_sharded("nofec", small_model(), replications=8, rng=root)
        result_b = run_sharded("nofec", small_model(), replications=8, rng=root)
        assert key(result_a) == key(result_b)


class TestChunkPlanning:
    def test_covers_range_exactly(self):
        for reps, chunk in [(10, 3), (1, 1), (64, 64), (65, 64)]:
            chunks = _plan_chunks(reps, chunk, jobs=1, adaptive=False)
            assert chunks[0][0] == 0
            assert sum(count for _, count in chunks) == reps
            for (start, count), (next_start, _) in zip(chunks, chunks[1:]):
                assert next_start == start + count

    def test_adaptive_default_is_jobs_independent(self):
        for jobs in (1, 2, 8):
            assert _plan_chunks(1000, None, jobs, adaptive=True) == _plan_chunks(
                1000, None, 1, adaptive=True
            )


class TestShardInvariance:
    @pytest.mark.parametrize("simulator,params", CASES)
    @given(chunk_size=st.integers(1, 24), seed=st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_any_chunking_is_bit_identical(
        self, simulator, params, chunk_size, seed
    ):
        model = small_model()
        reference = run_sharded(
            simulator, model, params=params, replications=24, rng=seed
        )
        rechunked = run_sharded(
            simulator,
            model,
            params=params,
            replications=24,
            rng=seed,
            chunk_size=chunk_size,
        )
        assert key(rechunked) == key(reference)

    @pytest.mark.parametrize("simulator,params", CASES)
    def test_shard_cell_out_of_order_merge(self, simulator, params):
        """Cells computed in any order merge to the inline result."""
        model = small_model()
        reference = run_sharded(
            simulator, model, params=params, replications=20, rng=5
        )
        cells = [
            shard_cell(
                simulator=simulator,
                model=model.to_spec(),
                params=params,
                entropy=5,
                spawn_key=[],
                start=start,
                count=count,
                timing={"packet_interval": 0.040, "round_gap": 0.300},
            )
            for start, count in [(12, 8), (0, 6), (6, 6)]  # shuffled
        ]
        merged = StreamingMoments()
        for cell in cells:
            merged.merge(StreamingMoments.from_json(cell))
        assert key(merged.result()) == key(reference)

    def test_gilbert_burst_model_round_trips(self):
        model = GilbertLoss.from_loss_and_burst(3, 0.05, 2.0, 0.040)
        clone = loss_model_from_spec(model.to_spec())
        a = run_sharded("layered", model, params={"k": 4, "h": 1}, replications=16, rng=3)
        b = run_sharded("layered", clone, params={"k": 4, "h": 1}, replications=16, rng=3)
        assert key(a) == key(b)


class TestAdaptiveStopping:
    def test_stops_at_target_and_reports_spend(self):
        result = run_sharded(
            "nofec",
            small_model(),
            replications=2048,
            rng=11,
            target_ci=0.08,
            chunk_size=32,
        )
        assert result.replications < 2048  # actually stopped early
        assert result.replications % 32 == 0  # at a chunk boundary
        assert result.ci95_halfwidth <= 0.08

    def test_stop_is_deterministic_in_chunk_size(self):
        results = [
            run_sharded(
                "nofec",
                small_model(),
                replications=2048,
                rng=11,
                target_ci=0.08,
                chunk_size=32,
            )
            for _ in range(2)
        ]
        assert key(results[0]) == key(results[1])

    def test_cap_wins_over_unreachable_target(self):
        result = run_sharded(
            "nofec",
            small_model(),
            replications=16,
            rng=11,
            target_ci=1e-9,
        )
        assert result.replications == 16

    def test_prefix_rule_ignores_later_chunks(self):
        # the stopped prefix of a tighter-capped run must be the prefix
        # of the longer run: later chunks cannot influence earlier ones
        tight = run_sharded(
            "nofec", small_model(), replications=512, rng=11,
            target_ci=0.08, chunk_size=32,
        )
        loose = run_sharded(
            "nofec", small_model(), replications=4096, rng=11,
            target_ci=0.08, chunk_size=32,
        )
        assert key(tight) == key(loose)


class TestValidation:
    def test_unknown_simulator(self):
        with pytest.raises(ValueError, match="unknown simulator"):
            run_sharded("warp_drive", small_model())

    def test_missing_and_unknown_params(self):
        with pytest.raises(ValueError, match="requires params"):
            run_sharded("layered", small_model(), params={"k": 4})
        with pytest.raises(ValueError, match="unknown params"):
            run_sharded("nofec", small_model(), params={"k": 4})

    def test_bad_counts(self):
        model = small_model()
        with pytest.raises(ValueError):
            run_sharded("nofec", model, replications=0)
        with pytest.raises(ValueError):
            run_sharded("nofec", model, chunk_size=0)
        with pytest.raises(ValueError):
            run_sharded("nofec", model, jobs=0)
        with pytest.raises(ValueError):
            run_sharded("nofec", model, target_ci=0.0)

    @pytest.mark.parametrize(
        "simulator,params,name",
        [
            # ran as a layered code with h = 1.5 and reported E[M] = 1.375
            ("layered", {"k": 4, "h": 1.5}, "h"),
            # ran as k = 1
            ("layered", {"k": True, "h": 1}, "k"),
            ("integrated_rounds", {"k": True}, "k"),
            # died with "slice indices must be integers" inside the kernel
            ("integrated_rounds", {"k": 4, "initial_parities": 2.0}, "initial_parities"),
            ("integrated_immediate", {"k": 4.0}, "k"),
            ("integrated_immediate", {"k": 4, "initial_parities": False}, "initial_parities"),
        ],
    )
    def test_packet_counts_must_be_integers(self, simulator, params, name):
        with pytest.raises(ValueError, match=f"param '{name}' must be an integer"):
            run_sharded(simulator, small_model(), params=params, replications=4)

    def test_numpy_integer_counts_are_accepted(self):
        params = {"k": np.int64(4), "h": np.int32(1)}
        assert key(
            run_sharded("layered", small_model(), params=params, replications=8)
        ) == key(
            run_sharded(
                "layered", small_model(), params={"k": 4, "h": 1}, replications=8
            )
        )

    def test_every_registered_simulator_has_a_kernel(self):
        assert set(SIMULATORS) == {
            "nofec",
            "layered",
            "integrated_immediate",
            "integrated_rounds",
        }
        for spec in SIMULATORS.values():
            assert callable(spec.kernel)


class TestProcessFanout:
    """One spawn-backed test: fan-out must not change a single bit."""

    def test_jobs2_matches_inline_including_adaptive(self):
        model = small_model()
        inline = run_sharded(
            "layered", model, params={"k": 4, "h": 1},
            replications=48, rng=21, chunk_size=16,
        )
        fanned = run_sharded(
            "layered", model, params={"k": 4, "h": 1},
            replications=48, rng=21, chunk_size=16, jobs=2,
        )
        assert key(fanned) == key(inline)

    def test_unspecable_model_demands_jobs1(self):
        class Opaque(BernoulliLoss):
            def to_spec(self):
                raise NotImplementedError("no spec")

        model = Opaque(3, 0.1)
        # inline still works...
        run_sharded("nofec", model, replications=4)
        # ...but fan-out refuses loudly instead of failing in a worker
        with pytest.raises(ValueError, match="jobs=1"):
            run_sharded("nofec", model, replications=4, jobs=2)

    def test_a_failed_chunk_raises_and_leaves_no_worker(self):
        class Unbuildable(BernoulliLoss):
            def to_spec(self):
                return {"kind": "no_such_model"}

        # the rebuild fails inside each worker: the run raises rather
        # than return an estimate over the chunks that survived
        with pytest.raises(ValueError, match="no_such_model"):
            run_sharded("nofec", Unbuildable(3, 0.1), replications=8, jobs=2)
        assert multiprocessing.active_children() == []
        run_sharded("nofec", small_model(), replications=8, jobs=2)
        assert multiprocessing.active_children() == []
