"""The seed tree of ``run_sharded``, checked against numpy as the oracle.

Replication ``i`` under a root ``(entropy, spawn_key)`` is
``default_rng(SeedSequence(entropy, spawn_key=(*spawn_key, i)))`` with the
default pool size (DESIGN.md section 11.1).  ``repro.mc.sharded`` derives a
chunk's generators in one vectorised pass instead of building one
``SeedSequence`` per replication; numpy's ``SeedSequence`` lives here, as
the oracle every derived generator must equal state for state.
"""

from __future__ import annotations

import json
import pickle
import warnings
import zlib

import numpy as np
import pytest

from repro.mc import SIMULATORS, PAPER_TIMING, replication_rng
from repro.mc.sharded import _chunk_rngs, shard_cell
from repro.mc.streaming import StreamingMoments
from repro.sim.loss import BernoulliLoss

#: 128-bit entropy as ``SeedSequence()`` draws it, fixed for the grid.
ENTROPY_128 = 0x9F3C_27A1_5D0E_4B88_C611_3A7F_E402_91D5

ENTROPIES = {
    "zero": 0,
    "small": 5,
    "int63": 2**63 - 1,
    "fresh128": np.random.SeedSequence().entropy,
    "fixed128": ENTROPY_128,
    "list": [3, 2**40 + 1, 0, 17, 9],
    # what a shard worker receives: the task crossed the spawn boundary
    # and the journal as JSON
    "json128": json.loads(json.dumps({"entropy": ENTROPY_128}))["entropy"],
}

SPAWN_KEYS = {
    "root": (),
    "point": (zlib.crc32(b"fig15/layered/0.01"),),
    "pair": (4, 7),
    "wide": (2**32 + 3, 11),
}

CHUNKS = {
    "empty": (0, 0),
    "one": (0, 1),
    "first": (0, 6),
    "mid": (1000, 5),
    "below_2_31": (2**31 - 2, 4),
    # one-word indices below 2**32, two-word indices from it on
    "straddle_2_32": (2**32 - 3, 6),
    "two_word": (2**33 + 7, 3),
}


def oracle_rng(entropy, spawn_key, index) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy, spawn_key=(*spawn_key, index))
    )


def states(generators) -> list[dict]:
    """Full PCG64 states of Generators or bare bit generators."""
    return [
        getattr(generator, "bit_generator", generator).state
        for generator in generators
    ]


@pytest.fixture(autouse=True)
def no_numpy_warnings():
    # wrapping uint32 arithmetic must not emit an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestAgainstNumpy:
    @pytest.mark.parametrize("chunk", CHUNKS, ids=str)
    @pytest.mark.parametrize("key", SPAWN_KEYS, ids=str)
    @pytest.mark.parametrize("entropy", ENTROPIES, ids=str)
    def test_chunk_states_equal_seedsequence(self, entropy, key, chunk):
        entropy, key = ENTROPIES[entropy], SPAWN_KEYS[key]
        start, count = CHUNKS[chunk]
        derived = states(_chunk_rngs(entropy, key, start, count))
        expected = states(
            oracle_rng(entropy, key, index)
            for index in range(start, start + count)
        )
        assert len(derived) == count
        assert derived == expected, f"entropy={entropy!r}"

    @pytest.mark.parametrize("key", SPAWN_KEYS, ids=str)
    @pytest.mark.parametrize("entropy", ENTROPIES, ids=str)
    def test_replication_rng_equals_seedsequence(self, entropy, key):
        entropy, key = ENTROPIES[entropy], SPAWN_KEYS[key]
        for index in (0, 1, 2**32 - 1, 2**32, 2**64 + 5):
            derived = replication_rng(entropy, key, index).bit_generator.state
            expected = oracle_rng(entropy, key, index).bit_generator.state
            assert derived == expected, f"entropy={entropy!r}, index={index}"

    def test_replication_rng_is_its_chunk_row(self):
        chunk = states(_chunk_rngs(ENTROPY_128, (8,), 40, 10))
        assert chunk == [
            replication_rng(ENTROPY_128, (8,), index).bit_generator.state
            for index in range(40, 50)
        ]

    def test_draws_match(self):
        # the state is the whole stream, but say it with draws too
        derived = [
            rng.integers(0, 2**62, size=3)
            for rng in _chunk_rngs(7, (42,), 0, 4)
        ]
        for index, draws in enumerate(derived):
            expected = oracle_rng(7, (42,), index).integers(0, 2**62, size=3)
            assert (draws == expected).all()

    @pytest.mark.parametrize("start", [-1, -(2**32)])
    def test_negative_start_raises(self, start):
        with pytest.raises(ValueError):
            list(_chunk_rngs(5, (), start, 3))
        with pytest.raises(ValueError):
            replication_rng(5, (), start)

    def test_negative_seed_words_raise_like_numpy(self):
        for entropy, key in [(-1, ()), (5, (-2,))]:
            with pytest.raises(ValueError):
                oracle_rng(entropy, key, 0)
            with pytest.raises(ValueError):
                list(_chunk_rngs(entropy, key, 0, 2))

    def test_builds_no_seedsequence(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a SeedSequence was built per replication")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        generators = list(_chunk_rngs(ENTROPY_128, (1, 2), 0, 64))
        generators.append(replication_rng(ENTROPY_128, (1, 2), 64))
        assert len({rng.integers(2**62) for rng in generators}) == 65


class TestSeedSequenceFace:
    """What a replication generator's ``bit_generator.seed_seq`` shows."""

    def test_entropy_and_spawn_key(self):
        seed_seq = replication_rng(ENTROPY_128, (3,), 9).bit_generator.seed_seq
        assert seed_seq.entropy == ENTROPY_128
        assert seed_seq.spawn_key == (3, 9)
        oracle = np.random.SeedSequence(ENTROPY_128, spawn_key=(3, 9))
        assert seed_seq.pool_size == oracle.pool_size
        assert (seed_seq.pool == oracle.pool).all()
        assert seed_seq.state == oracle.state
        for n_words, dtype in [(4, np.uint64), (4, np.uint32), (3, np.uint64)]:
            assert (
                seed_seq.generate_state(n_words, dtype)
                == oracle.generate_state(n_words, dtype)
            ).all()

    def test_spawn_yields_todays_children(self):
        derived = replication_rng(99, (5,), 3)
        oracle = oracle_rng(99, (5,), 3)
        for _ in range(2):  # a second spawn continues the child count
            assert states(derived.spawn(3)) == states(oracle.spawn(3))
        assert states(derived.bit_generator.spawn(2)) == states(
            oracle.bit_generator.spawn(2)
        )
        seed_seq = derived.bit_generator.seed_seq
        assert seed_seq.n_children_spawned == 8
        assert [child.spawn_key for child in seed_seq.spawn(2)] == [
            (5, 3, 8),
            (5, 3, 9),
        ]

    def test_generator_pickles(self):
        rng = replication_rng(12, (), 4)
        rng.random(3)
        clone = pickle.loads(pickle.dumps(rng))
        assert clone.bit_generator.state == rng.bit_generator.state
        assert clone.random() == rng.random()
        assert states(clone.spawn(1)) == states(oracle_rng(12, (), 4).spawn(1))


class TestTreeDefinition:
    """Replication ``i`` is ``SeedSequence(entropy, spawn_key=(*key, i))``
    with the default pool size -- not "the root's next spawn() child"."""

    def test_fresh_default_root_agrees_with_spawn(self):
        root = np.random.SeedSequence(99)
        assert states(_chunk_rngs(99, (), 0, 5)) == states(
            np.random.default_rng(child) for child in root.spawn(5)
        )

    def test_root_pool_size_is_ignored(self):
        root = np.random.SeedSequence(99, pool_size=8)
        derived = replication_rng(root.entropy, root.spawn_key, 0)
        (child,) = root.spawn(1)
        assert child.pool_size == 8
        assert (
            derived.bit_generator.state
            != np.random.default_rng(child).bit_generator.state
        )
        assert derived.bit_generator.state == oracle_rng(99, (), 0).bit_generator.state

    def test_children_already_spawned_are_ignored(self):
        root = np.random.SeedSequence(99)
        root.spawn(3)
        (next_child,) = root.spawn(1)
        assert next_child.spawn_key == (3,)
        derived = replication_rng(root.entropy, root.spawn_key, 0)
        assert (
            derived.bit_generator.state
            != np.random.default_rng(next_child).bit_generator.state
        )
        assert derived.bit_generator.state == oracle_rng(99, (), 0).bit_generator.state


class TestShardCell:
    def test_json_task_draws_the_oracle_streams(self):
        # a fan-out shard gets its arguments back from JSON; its samples
        # are the kernel's on the oracle's generators
        spec = SIMULATORS["integrated_rounds"]
        model = BernoulliLoss(n_receivers=20, p=0.1)
        task = json.loads(
            json.dumps(
                {
                    "simulator": spec.name,
                    "model": model.to_spec(),
                    "params": {"k": 4},
                    "entropy": ENTROPY_128,
                    "spawn_key": [17],
                    "start": 30,
                    "count": 12,
                    "timing": {
                        "packet_interval": PAPER_TIMING.packet_interval,
                        "round_gap": PAPER_TIMING.round_gap,
                    },
                }
            )
        )
        expected = StreamingMoments()
        expected.update_many(
            spec.kernel(
                model,
                PAPER_TIMING,
                (oracle_rng(ENTROPY_128, (17,), i) for i in range(30, 42)),
                k=4,
            )
        )
        assert StreamingMoments.from_json(shard_cell(**task)) == expected
