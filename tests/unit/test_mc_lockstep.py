"""Lockstep sampling: a chunk's replications stepped together draw exactly
what each would draw alone.

Three levels, each against the one-generator path it replaces:

* the geometric-gap walk (``sim.loss._walk``) over ``n`` generators is
  ``n`` single walks -- the same lost cells, each generator's in its own
  run of keys, and the same final ``bit_generator.state`` for every
  generator -- checked against a plain per-generator loop written out
  here, including the further-batch path;
* ``LossModel.start_many(rngs).losses(members, times)``, on the grid of
  the realisations stacked ``member * R + receiver``, is each member's
  ``start(rng).losses(row)``, for every model in ``sim.loss``, over
  successive calls on changing member subsets and widths, with the same
  checks on ``times``;
* the integrated kernels give the same samples whatever the groups the
  chunk is stepped in, replay first-burst patterns through the payload
  verifier replication by replication in chunk order, and keep their
  transmission budget.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.loss as loss_module
from repro.mc import integrated
from repro.mc._common import PAPER_TIMING, PayloadVerifier
from repro.mc.sharded import _chunk_rngs
from repro.sim.loss import (
    BernoulliLoss,
    BurstyTreeLoss,
    FullBinaryTreeLoss,
    GilbertLoss,
    HeterogeneousLoss,
    ScriptedLoss,
    TreeLoss,
    _lost_cells,
    _walk,
    two_class_probabilities,
)
from repro.sim.tree import full_binary_tree


def _reference_walk(cells, p, rng, batch=None):
    """One generator's walk as a plain loop: a batch of geometric gaps,
    and further batches from the last position while the grid is not
    covered."""
    if p <= 0.0 or cells <= 0:
        return np.empty(0, dtype=np.int64)
    if batch is None:
        mean = cells * p
        batch = int(mean + 8.0 * math.sqrt(mean * (1.0 - p))) + 16
    found, origin = [], -1
    while True:
        gaps = np.minimum(rng.geometric(p, size=batch), cells + 1)
        positions = origin + np.cumsum(gaps)
        found.append(positions[positions < cells])
        if positions[-1] >= cells:
            return np.concatenate(found)
        origin = int(positions[-1])


def _generators(seed, n):
    return [np.random.default_rng([seed, i]) for i in range(n)]


def _states(rngs):
    return [rng.bit_generator.state for rng in rngs]


def _assert_n_single_walks(keys, cells, p, seed, labels, batch=None):
    singles = _generators(seed, len(labels))
    assert (np.diff(keys) > 0).all()
    total = 0
    for label, rng in zip(labels, singles):
        expected = _reference_walk(cells, p, rng, batch)
        mine = keys[(keys >= label * cells) & (keys < (label + 1) * cells)]
        np.testing.assert_array_equal(mine - label * cells, expected)
        total += mine.size
    assert total == keys.size
    return singles


# ----------------------------------------------------------------------
# the walk
# ----------------------------------------------------------------------
class TestWalk:
    @given(
        n=st.integers(0, 6),
        cells=st.integers(0, 3000),
        p=st.sampled_from([0.0, 1e-300, 1e-4, 0.01, 0.2, 0.6, 0.95])
        | st.floats(0.0, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_n_generators_are_n_single_walks(self, n, cells, p, seed):
        lockstep = _generators(seed, n)
        keys = _walk(cells, p, lockstep)
        singles = _assert_n_single_walks(keys, cells, p, seed, range(n))
        assert _states(lockstep) == _states(singles)

    @given(
        labels=st.lists(st.integers(0, 50), max_size=5, unique=True).map(sorted),
        cells=st.integers(1, 500),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_labels_place_each_walk_in_its_own_run(self, labels, cells, seed):
        lockstep = _generators(seed, len(labels))
        keys = _walk(cells, 0.1, lockstep, np.array(labels, dtype=np.int64))
        singles = _assert_n_single_walks(keys, cells, 0.1, seed, labels)
        assert _states(lockstep) == _states(singles)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_further_batches(self, monkeypatch, n):
        # eight gaps a batch on grids holding ~10-400 losses: every
        # generator walks on for a different number of further batches,
        # and one grid is covered by its first batch
        real = loss_module._gap_walk
        rows = []

        def short(cells, p, rngs, batch, origin):
            rows.append(len(rngs))
            return real(cells, p, rngs, 8, origin)

        monkeypatch.setattr(loss_module, "_gap_walk", short)
        for cells, p in [(4000, 0.1), (300, 0.03), (40, 0.01)]:
            rows.clear()
            lockstep = _generators(cells, n)
            keys = _walk(cells, p, lockstep)
            singles = _assert_n_single_walks(keys, cells, p, cells, range(n), 8)
            assert _states(lockstep) == _states(singles)
            # the walk thins out as generators cover their grids
            assert rows[0] == n and rows == sorted(rows, reverse=True)
            if cells == 4000:
                assert len(rows) > 10

    def test_zero_probability_and_empty_grid_draw_nothing(self):
        rngs = _generators(5, 3)
        before = _states(rngs)
        for cells, p in [(100, 0.0), (0, 0.3), (-1, 0.3)]:
            keys = _walk(cells, p, rngs)
            assert keys.size == 0 and keys.dtype.kind == "i"
        assert _states(rngs) == before

    def test_no_generators(self):
        assert _walk(1000, 0.1, []).size == 0

    def test_one_generator_is_lost_cells(self):
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        np.testing.assert_array_equal(
            _walk(5000, 0.02, [a]), _lost_cells(5000, 0.02, b)
        )
        assert a.bit_generator.state == b.bit_generator.state


# ----------------------------------------------------------------------
# chunk samplers
# ----------------------------------------------------------------------
SCHEDULE = np.random.default_rng(3).random((6, 25)) < 0.3

MODELS = {
    "bernoulli": lambda: BernoulliLoss(40, 0.1),
    "two_class": lambda: HeterogeneousLoss(two_class_probabilities(60, 0.2)),
    "with_lossless_class": lambda: HeterogeneousLoss(
        np.array([0.0, 0.3, 0.0, 0.05, 0.3, 0.05, 0.2])
    ),
    "all_lossless": lambda: HeterogeneousLoss(np.zeros(5)),
    "fbt": lambda: FullBinaryTreeLoss(4, 0.1),
    "fbt_depth0": lambda: FullBinaryTreeLoss(0, 0.3),
    "gilbert": lambda: GilbertLoss.from_loss_and_burst(12, 0.1, 3.0, 0.04),
    "bursty_tree": lambda: BurstyTreeLoss(3, 0.1, 2.0, 0.04),
    "scripted": lambda: ScriptedLoss(SCHEDULE),
    "tree": lambda: TreeLoss(full_binary_tree(3), 0, node_loss=0.05),
}

#: (members of a chunk of four, transmissions each member is sent)
STEPS = [
    ([0, 1, 2, 3], 5),
    ([0, 2], 3),
    ([1], 1),
    ([0, 1, 2, 3], 0),
    ([1, 2, 3], 16),
    ([3], 2),
]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_chunk_is_its_members_alone(name):
    model = MODELS[name]()
    chunk = model.start_many(_generators(11, 4))
    singles = _generators(11, 4)
    samplers = [model.start(rng) for rng in singles]
    clock = np.zeros(4)
    for members, width in STEPS:
        members = np.array(members)
        # each member on its own clock, every row a different time
        times = clock[members, None] + 0.04 * np.arange(width) + 0.3
        if width:
            clock[members] = times[:, -1]
        rows, cols = chunk.losses(members, times)
        assert rows.size == cols.size
        member, receiver = np.divmod(rows, model.n_receivers)
        for j, m in enumerate(members):
            mine = member == m
            expected_rows, expected_cols = samplers[m].losses(times[j])
            np.testing.assert_array_equal(receiver[mine], expected_rows)
            np.testing.assert_array_equal(cols[mine], expected_cols)
        assert np.isin(member, members).all()
        assert ((cols >= 0) & (cols < max(width, 1))).all()
        order = np.lexsort((cols, rows))
        assert (order == np.arange(order.size)).all()
    lockstep_rngs = getattr(chunk, "rngs", None)
    if lockstep_rngs is not None:
        assert _states(lockstep_rngs) == _states(singles)


@pytest.mark.parametrize("name", ["bernoulli", "gilbert"])
class TestChunkChecksTimes:
    def chunk(self, name):
        return MODELS[name]().start_many(_generators(2, 3))

    def test_one_row_per_member(self, name):
        with pytest.raises(ValueError, match="one row per member"):
            self.chunk(name).losses(np.array([0, 1]), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="one row per member"):
            self.chunk(name).losses(np.array([0]), np.zeros(2))

    @pytest.mark.parametrize(
        "row", [[0.0, math.nan], [math.nan], [1.0, 0.5], [math.nan, 1.0]]
    )
    def test_rows_are_ordered_and_free_of_nan(self, name, row):
        times = np.array([[0.0] * len(row), row])
        with pytest.raises(ValueError, match="non-decreasing and free of NaN"):
            self.chunk(name).losses(np.array([0, 2]), times)

    def test_no_member_goes_back_in_time(self, name):
        chunk = self.chunk(name)
        chunk.losses(np.array([0, 1]), np.array([[0.0, 1.0], [0.0, 2.0]]))
        chunk.losses(np.array([0]), np.array([[1.0]]))  # equal is fine
        chunk.losses(np.array([2]), np.array([[0.0]]))  # a fresh member
        with pytest.raises(ValueError, match="already advanced to t=2.0"):
            chunk.losses(np.array([0, 1]), np.array([[1.5], [1.5]]))


# ----------------------------------------------------------------------
# the integrated kernels
# ----------------------------------------------------------------------
KERNELS = {
    "immediate": integrated.sample_chunk_immediate,
    "rounds": integrated.sample_chunk_rounds,
}

KERNEL_MODELS = {
    "bernoulli": lambda: BernoulliLoss(300, 0.05),
    "two_class": lambda: HeterogeneousLoss(two_class_probabilities(100, 0.1)),
    "fbt": lambda: FullBinaryTreeLoss(5, 0.05),
    "gilbert": lambda: GilbertLoss.from_loss_and_burst(30, 0.1, 3.0, 0.04),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
@pytest.mark.parametrize("k,extra", [(20, 0), (5, 3), (1, 0)])
def test_groups_cannot_change_a_sample(monkeypatch, kernel, name, k, extra):
    def run():
        return KERNELS[kernel](
            KERNEL_MODELS[name](),
            PAPER_TIMING,
            _chunk_rngs(41, (), 0, 24),
            k=k,
            initial_parities=extra,
        )

    whole = run()
    assert whole.shape == (24,) and whole.dtype == np.float64
    monkeypatch.setattr(integrated, "STEP_BYTES", 1)  # one replication a group
    np.testing.assert_array_equal(run(), whole)
    alone = [
        KERNELS[kernel](
            KERNEL_MODELS[name](),
            PAPER_TIMING,
            _chunk_rngs(41, (), i, 1),
            k=k,
            initial_parities=extra,
        )[0]
        for i in range(24)
    ]
    np.testing.assert_array_equal(alone, whole)


def test_groups_are_sized_by_the_losses_drawn(monkeypatch):
    sizes = []
    real = integrated._rounds_group

    def spy(loss_model, k, timing, offsets, rngs, *rest):
        sizes.append(len(rngs))
        return real(loss_model, k, timing, offsets, rngs, *rest)

    monkeypatch.setattr(integrated, "_rounds_group", spy)
    monkeypatch.setattr(integrated, "STEP_BYTES", 1 << 20)
    integrated.sample_chunk_rounds(
        BernoulliLoss(2000, 0.01), PAPER_TIMING, _chunk_rngs(1, (), 0, 300), k=20
    )
    # first as if every packet were lost (a group of one), then by the
    # ~400 losses a replication drew
    assert sizes[0] == 1
    assert sum(sizes) == 300 and 10 < sizes[1] < 100


def test_an_empty_chunk_has_no_samples():
    for kernel in KERNELS.values():
        samples = kernel(BernoulliLoss(5, 0.1), PAPER_TIMING, iter(()), k=3)
        assert samples.shape == (0,) and samples.dtype == np.float64


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("name", ["bernoulli", "gilbert"])
def test_first_bursts_are_verified_in_chunk_order(monkeypatch, kernel, name):
    k, extra, count = 5, 2, 9
    patterns = []
    real = PayloadVerifier.verify_masks

    def record(self, received):
        patterns.append(received.copy())
        return real(self, received)

    monkeypatch.setattr(PayloadVerifier, "verify_masks", record)
    model = KERNEL_MODELS[name]()
    verified = KERNELS[kernel](
        model,
        PAPER_TIMING,
        _chunk_rngs(8, (), 0, count),
        k=k,
        initial_parities=extra,
        codec="rse",
    )
    plain = KERNELS[kernel](
        model, PAPER_TIMING, _chunk_rngs(8, (), 0, count), k=k, initial_parities=extra
    )
    np.testing.assert_array_equal(verified, plain)
    times = np.arange(k + extra) * PAPER_TIMING.packet_interval
    expected = [
        ~model.start(rng).sample(times) for rng in _chunk_rngs(8, (), 0, count)
    ]
    assert len(patterns) == count
    for got, want in zip(patterns, expected):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_the_transmission_budget_holds(monkeypatch, kernel):
    monkeypatch.setattr(integrated, "_MAX_TRANSMISSIONS", 40)
    with pytest.raises(RuntimeError, match="did not complete within budget"):
        KERNELS[kernel](
            BernoulliLoss(50, 0.6), PAPER_TIMING, _chunk_rngs(3, (), 0, 6), k=20
        )
