"""Property-based tests: loss-model statistics, row counts, interleaver, engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fec.interleaver import BlockInterleaver, Deinterleaver, interleave_indices
from repro.mc._common import _row_counts
from repro.mc.burst import run_lengths
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss, FullBinaryTreeLoss, GilbertLoss


class TestRowCounts:
    """``_row_counts`` is ``mask.sum(axis=1)``: same values, same dtype."""

    @staticmethod
    def _same(mask: np.ndarray) -> None:
        expected = mask.sum(axis=1)
        counts = _row_counts(mask)
        assert counts.dtype == expected.dtype == np.intp
        assert counts.shape == expected.shape
        assert (counts == expected).all()

    @given(
        seed=st.integers(0, 2**31),
        p=st.floats(min_value=0.0, max_value=1.0),
        r=st.integers(1, 300),
        t=st.integers(0, 70),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_axis_sum_on_the_kernels_inputs(self, seed, p, r, t):
        rng = np.random.default_rng(seed)
        lost = rng.random((r, t)) < p
        self._same(lost)
        # the views and copies the chunk kernels actually pass
        self._same(~lost)
        self._same(lost[np.flatnonzero(rng.random(r) < 0.5)])
        self._same((~lost)[:, : t // 2])
        self._same(np.asfortranarray(lost))
        self._same(lost[::2, ::3])

    def test_no_columns_counts_zero(self):
        counts = _row_counts(np.zeros((5, 0), dtype=bool))
        assert counts.dtype == np.intp
        assert counts.tolist() == [0] * 5

    def test_refuses_a_width_float32_cannot_count(self):
        # never allocated: a zero-stride view is wide enough to trip the guard
        wide = np.broadcast_to(np.zeros((1, 1), dtype=bool), (1, 1 << 24))
        with pytest.raises(ValueError, match="exact"):
            _row_counts(wide)


class TestLossModelInvariants:
    @given(
        seed=st.integers(0, 2**31),
        p=st.floats(min_value=0.0, max_value=0.9),
        r=st.integers(1, 64),
        t=st.integers(1, 32),
    )
    @settings(max_examples=40, deadline=None)
    def test_bernoulli_shape_and_dtype(self, seed, p, r, t):
        rng = np.random.default_rng(seed)
        lost = BernoulliLoss(r, p).sample_at(np.arange(t, dtype=float), rng)
        assert lost.shape == (r, t)
        assert lost.dtype == bool

    @given(
        seed=st.integers(0, 2**31),
        depth=st.integers(0, 8),
        p=st.floats(min_value=0.001, max_value=0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_fbt_receiver_count_and_marginal(self, seed, depth, p):
        rng = np.random.default_rng(seed)
        model = FullBinaryTreeLoss(depth, p)
        assert model.n_receivers == 2**depth
        lost = model.sample_at(np.arange(4, dtype=float), rng)
        assert lost.shape == (2**depth, 4)
        assert np.allclose(model.marginal_loss_probability(), p)

    @given(
        seed=st.integers(0, 2**31),
        p=st.floats(min_value=0.005, max_value=0.4),
        burst=st.floats(min_value=1.1, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_gilbert_stationary_probability_exact(self, seed, p, burst):
        model = GilbertLoss.from_loss_and_burst(4, p, burst, 0.04)
        assert abs(model.stationary_loss_probability - p) < 1e-12

    @given(
        seed=st.integers(0, 2**31),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=20
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_gilbert_sampler_accepts_any_forward_times(self, seed, gaps):
        rng = np.random.default_rng(seed)
        model = GilbertLoss(3, 0.5, 2.0)
        sampler = model.start(rng)
        t = 0.0
        for gap in gaps:
            t += gap
            out = sampler.sample(np.array([t]))
            assert out.shape == (3, 1)


class TestRunLengthsProperties:
    @given(bits=st.lists(st.booleans(), max_size=200))
    @settings(max_examples=100)
    def test_lengths_sum_to_loss_count(self, bits):
        lost = np.array(bits, dtype=bool)
        lengths = run_lengths(lost)
        assert lengths.sum() == lost.sum()

    @given(bits=st.lists(st.booleans(), max_size=200))
    @settings(max_examples=100)
    def test_run_count_matches_transitions(self, bits):
        lost = np.array(bits, dtype=bool)
        lengths = run_lengths(lost)
        padded = np.concatenate(([False], lost))
        starts = int((padded[1:] & ~padded[:-1]).sum())
        assert len(lengths) == starts


class TestInterleaverProperties:
    @given(
        block_length=st.integers(1, 12),
        depth=st.integers(1, 8),
    )
    @settings(max_examples=60)
    def test_indices_always_a_permutation(self, block_length, depth):
        order = interleave_indices(block_length, depth)
        assert sorted(order) == list(range(block_length * depth))

    @given(
        block_length=st.integers(1, 10),
        depth=st.integers(1, 6),
        batches=st.integers(1, 3),
    )
    @settings(max_examples=40)
    def test_roundtrip_any_configuration(self, block_length, depth, batches):
        total = block_length * depth * batches
        interleaver = BlockInterleaver(block_length, depth)
        deinterleaver = Deinterleaver(block_length, depth)
        interleaver.push_block(range(total))
        sent = interleaver.pop_ready()
        batch_size = block_length * depth
        restored = []
        for start in range(0, total, batch_size):
            restored.extend(deinterleaver.restore(sent[start: start + batch_size]))
        assert restored == list(range(total))


class TestEngineProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50
        )
    )
    @settings(max_examples=50)
    def test_dispatch_order_is_sorted(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=30
        ),
        cancel_index=st.integers(0, 28),
    )
    @settings(max_examples=50)
    def test_cancelled_events_never_fire(self, delays, cancel_index):
        cancel_index %= len(delays)
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(delay, lambda i=i: fired.append(i))
            for i, delay in enumerate(delays)
        ]
        handles[cancel_index].cancel()
        sim.run()
        assert cancel_index not in fired
        assert len(fired) == len(delays) - 1
