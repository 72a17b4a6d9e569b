"""Two-sample equivalence: loss coordinates vs the dense draws they replaced.

``BernoulliLoss``, ``HeterogeneousLoss`` and ``FullBinaryTreeLoss`` used to
draw ``rng.random((R, T))`` and compare; they now draw the geometric gaps
between losses (DESIGN.md section 11.5).  That changed every stream those
models produce, on purpose and once.  The dense draws were deleted from
``src/`` and live on here, verbatim, as the oracle: this suite is the
evidence that the two are the same *distribution* -- per-kernel E[M] over
the pinned-sample grid, per-receiver loss counts, per-cell frequencies and
the tree's pairwise joint losses -- and that both sit on the closed forms.

Every seed is fixed, so a failure is a deterministic finding, not a flake.
Two mutations this suite is known to catch: summing the gaps without the
walk's ``-1`` origin (cell 0 is never lost), and applying an interior tree
loss to one leaf instead of the receiver interval below the node.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis import fbt
from repro.analysis import integrated as integrated_cf
from repro.analysis import layered as layered_cf
from repro.analysis import nofec as nofec_cf
from repro.mc import integrated, layered, nofec
from repro.mc._common import PAPER_TIMING
from repro.mc.sharded import _chunk_rngs
from repro.mc.streaming import StreamingMoments
from repro.sim.loss import (
    BernoulliLoss,
    FullBinaryTreeLoss,
    GilbertLoss,
    HeterogeneousLoss,
    LossModel,
    LossSampler,
    _lost_cells,
    two_class_probabilities,
)


# ----------------------------------------------------------------------
# the oracle: the dense samplers as they stood on the parent commit
# ----------------------------------------------------------------------
class _DenseSampler(LossSampler):
    def __init__(self, model: LossModel, rng: np.random.Generator):
        super().__init__(model)
        self.rng = rng

    def sample(self, times: np.ndarray) -> np.ndarray:
        return self.model.sample_at(self._check_forward(times), self.rng)


class _DenseLoss(LossModel):
    def start(self, rng):
        return _DenseSampler(self, rng)

    def marginal_loss_probability(self):  # pragma: no cover - unused
        raise NotImplementedError


class DenseBernoulli(_DenseLoss):
    def __init__(self, n_receivers: int, p: float):
        super().__init__(n_receivers)
        self.p = p

    def sample_at(self, times, rng):
        return rng.random((self.n_receivers, len(times))) < self.p


class DenseHeterogeneous(_DenseLoss):
    def __init__(self, probabilities):
        super().__init__(len(probabilities))
        self.probabilities = np.asarray(probabilities, dtype=float)

    def sample_at(self, times, rng):
        draws = rng.random((self.n_receivers, len(times)))
        return draws < self.probabilities[:, None]


class DenseFullBinaryTree(_DenseLoss):
    def __init__(self, depth: int, p: float):
        super().__init__(2**depth)
        self.depth = depth
        self.p_node = 1.0 - (1.0 - p) ** (1.0 / (depth + 1))

    def sample_at(self, times, rng):
        n = len(times)
        survive = rng.random((1, n)) >= self.p_node  # the root / source node
        for level in range(1, self.depth + 1):
            survive = np.repeat(survive, 2, axis=0)
            survive &= rng.random((2**level, n)) >= self.p_node
        return ~survive


TWO_CLASS = two_class_probabilities(200, 0.05)  # 10 receivers at 0.25

#: name -> (the model in src/, its dense oracle): the pinned-sample grid of
#: tests/unit/test_mc_pinned_samples.py plus a two-class population
MODELS = {
    "bernoulli_R1000_p01": (
        lambda: BernoulliLoss(1000, 0.01),
        lambda: DenseBernoulli(1000, 0.01),
    ),
    "bernoulli_R50_p25": (
        lambda: BernoulliLoss(50, 0.25),
        lambda: DenseBernoulli(50, 0.25),
    ),
    "bernoulli_R3_p60": (
        lambda: BernoulliLoss(3, 0.6),
        lambda: DenseBernoulli(3, 0.6),
    ),
    "fbt_d6_p05": (
        lambda: FullBinaryTreeLoss(6, 0.05),
        lambda: DenseFullBinaryTree(6, 0.05),
    ),
    "two_class_R200": (
        lambda: HeterogeneousLoss(TWO_CLASS),
        lambda: DenseHeterogeneous(TWO_CLASS),
    ),
}
BERNOULLI = {
    "bernoulli_R1000_p01": (1000, 0.01),
    "bernoulli_R50_p25": (50, 0.25),
    "bernoulli_R3_p60": (3, 0.6),
}

#: (k, initial_parities for the integrated kernels / h for layered)
GEOMETRIES = [(20, 0), (7, 2), (1, 0)]
REPLICATIONS = 1000


def _samples(kernel, model, k, extra, seed, count=REPLICATIONS) -> np.ndarray:
    rngs = _chunk_rngs(seed, (), 0, count)
    if kernel == "nofec":
        return nofec.sample_chunk(model, PAPER_TIMING, rngs)
    if kernel == "layered":
        return layered.sample_chunk(model, PAPER_TIMING, rngs, k=k, h=extra)
    if kernel == "immediate":
        return integrated.sample_chunk_immediate(
            model, PAPER_TIMING, rngs, k=k, initial_parities=extra
        )
    return integrated.sample_chunk_rounds(
        model, PAPER_TIMING, rngs, k=k, initial_parities=extra
    )


def _closed_form(kernel: str, name: str, k: int, extra: int) -> float | None:
    """E[M] from ``repro.analysis`` where the paper has one, else None."""
    if name in BERNOULLI:
        r, p = BERNOULLI[name]
        if kernel == "nofec":
            return nofec_cf.expected_transmissions(p, r)
        if kernel == "layered":
            return layered_cf.expected_transmissions(k, k + extra, p, r)
        # memoryless loss: round pacing cannot matter, both are Equation 6
        return integrated_cf.expected_transmissions_lower_bound(k, p, r, extra)
    if name == "two_class_R200":
        if kernel == "nofec":
            return nofec_cf.expected_transmissions_heterogeneous(TWO_CLASS)
        if kernel == "layered":
            return layered_cf.expected_transmissions_heterogeneous(
                k, k + extra, TWO_CLASS
            )
        return integrated_cf.expected_transmissions_heterogeneous(
            k, TWO_CLASS, extra
        )
    if kernel == "nofec":
        return fbt.expected_transmissions_nofec(6, 0.05)
    if kernel in ("immediate", "rounds") and extra == 0:
        return fbt.expected_transmissions_integrated(6, 0.05, k)
    return None  # layered, or a-priori parities, on the tree


CASES = [("nofec", name, 0, 0) for name in MODELS] + [
    (kernel, name, k, extra)
    for kernel in ("layered", "immediate", "rounds")
    for name in MODELS
    for k, extra in GEOMETRIES
]


@pytest.mark.parametrize(
    "kernel,name,k,extra", CASES, ids=lambda value: str(value)
)
def test_kernel_em_agrees_between_draws_and_with_the_closed_form(
    kernel, name, k, extra
):
    make_new, make_old = MODELS[name]
    new, old = StreamingMoments(), StreamingMoments()
    new.update_many(_samples(kernel, make_new(), k, extra, seed=2311))
    old.update_many(_samples(kernel, make_old(), k, extra, seed=2312))
    combined = math.hypot(new.stderr, old.stderr)
    assert abs(new.mean - old.mean) <= 4.0 * combined, (new, old)
    expected = _closed_form(kernel, name, k, extra)
    if expected is not None:
        assert new.result().compatible_with(expected), (new, expected)
        assert old.result().compatible_with(expected), (old, expected)


#: SHA-256 of 100 samples from ``_chunk_rngs(99, (), 0, 100)``, copied from
#: the parent's tests/unit/test_mc_pinned_samples.py before its Bernoulli
#: and FBT rows were regenerated
PARENT_DIGESTS = {
    ("nofec", "bernoulli_R1000_p01", 0, 0): "c0be708714f5c02fe1b09bda0837924195f794e477dde096c89ce999fdebb131",
    ("layered", "bernoulli_R50_p25", 7, 2): "e0396b5e787816ac3907bc8505176f334a19d71516fd2ede7d3715f33249afa3",
    ("immediate", "bernoulli_R1000_p01", 20, 0): "104452d9a538bf0197fdb28f1d21f6f7d83fcc0faa6af719497e9dab6e55146f",
    ("immediate", "fbt_d6_p05", 7, 2): "cfa37a93a363029612e1cf171388bd3ed54800af7764e5e1b4b6e9f104a63d1b",
    ("rounds", "bernoulli_R1000_p01", 20, 0): "93bae56c1b2435a167b11109009fe4827eac03988be5791cc64fe4eb5bfe0282",
    ("rounds", "bernoulli_R3_p60", 7, 2): "5efa4ff824d725baf1f87d291c36ce1801779e50fca6e595ad635f2d1cf82c9f",
    ("rounds", "fbt_d6_p05", 20, 0): "783501e28ebd84bcded64e51410001ea12e6f3feacfc80bff06cecab0f1fdf3d",
}


@pytest.mark.parametrize(
    "kernel,name,k,extra", sorted(PARENT_DIGESTS), ids=lambda value: str(value)
)
def test_oracle_reproduces_the_parents_samples_bit_for_bit(kernel, name, k, extra):
    """The oracle *is* the deleted sampler, and today's kernels -- which
    read loss coordinates -- do the parent's bookkeeping on the parent's
    draws: same seeds, same 100 floats."""
    samples = _samples(kernel, MODELS[name][1](), k, extra, seed=99, count=100)
    digest = hashlib.sha256(samples.tobytes()).hexdigest()
    assert digest == PARENT_DIGESTS[kernel, name, k, extra]


# ----------------------------------------------------------------------
# the draw itself
# ----------------------------------------------------------------------
def _loss_counts_over_calls(model, rng, calls: int, width: int) -> np.ndarray:
    """Per-receiver loss counts over ``calls`` successive ``losses`` calls."""
    sampler = model.start(rng)
    counts = np.zeros(model.n_receivers, dtype=np.intp)
    for call in range(calls):
        times = (call * width + np.arange(width)) * 0.04
        rows, cols = sampler.losses(times)
        assert cols.size == 0 or (0 <= cols.min() and cols.max() < width)
        counts += np.bincount(rows, minlength=model.n_receivers)
    return counts


def _binomial_chi_square(counts: np.ndarray, trials: int, p: float) -> float:
    """p-value of per-receiver loss counts against Binomial(trials, p).

    Both tails are pooled at the 1 % quantiles so that no bin expects a
    handful of receivers, which is where the chi-square statistic stops
    being chi-square.
    """
    low = int(stats.binom.ppf(0.01, trials, p))
    high = int(stats.binom.ppf(0.99, trials, p))
    observed = np.bincount(
        np.clip(counts, low, high) - low, minlength=high - low + 1
    )
    expected = stats.binom.pmf(np.arange(low, high + 1), trials, p)
    expected[0] = stats.binom.cdf(low, trials, p)
    expected[-1] = stats.binom.sf(high - 1, trials, p)
    return float(stats.chisquare(observed, counts.size * expected).pvalue)


@pytest.mark.parametrize("make", [BernoulliLoss, DenseBernoulli])
def test_per_receiver_loss_counts_are_binomial(make):
    # eight calls of five columns: a walk that restarts at a call boundary
    # must leave the same Binomial(40, p) at every receiver as one draw
    counts = _loss_counts_over_calls(
        make(4000, 0.05), np.random.default_rng(2313), calls=8, width=5
    )
    assert _binomial_chi_square(counts, 40, 0.05) > 1e-3


@pytest.mark.parametrize("make", [HeterogeneousLoss, DenseHeterogeneous])
def test_heterogeneous_marginals_and_class_counts(make):
    probabilities = two_class_probabilities(2000, 0.25, 0.02, 0.25)
    model = make(probabilities)
    trials = 400
    counts = _loss_counts_over_calls(
        model, np.random.default_rng(2314), calls=20, width=20
    )
    marginal = HeterogeneousLoss(probabilities).marginal_loss_probability()
    sigma = np.sqrt(marginal * (1.0 - marginal) / trials)
    assert np.abs(counts / trials - marginal).max() <= 5.0 * sigma.max()
    for p in (0.02, 0.25):
        members = counts[probabilities == p]
        assert abs(members.mean() / trials - p) <= 5.0 * math.sqrt(
            p * (1.0 - p) / (trials * members.size)
        )
        assert _binomial_chi_square(members, trials, p) > 1e-3


def test_lossless_receivers_of_a_heterogeneous_vector_never_lose():
    model = HeterogeneousLoss(np.array([0.0, 0.3, 0.0, 0.3, 0.0]))
    lost = model.sample_at(np.arange(4000.0), np.random.default_rng(2315))
    assert not lost[[0, 2, 4]].any()
    assert abs(lost[[1, 3]].mean() - 0.3) < 0.03
    silent = HeterogeneousLoss(np.zeros(4))
    rng = np.random.default_rng(2315)
    before = rng.bit_generator.state
    assert not silent.sample_at(np.arange(9.0), rng).any()
    assert rng.bit_generator.state == before  # p_max == 0 draws nothing


def test_every_cell_is_lost_equally_often():
    # three receivers, two columns, every cell its own counter: a walk
    # that starts one cell late never loses cell 0
    model, rng = BernoulliLoss(3, 0.3), np.random.default_rng(2316)
    draws = 20000
    hits = np.zeros((3, 2))
    times = np.array([0.0, 0.04])
    for _ in range(draws):
        hits += model.sample_at(times, rng)
    sigma = math.sqrt(0.3 * 0.7 / draws)
    assert np.abs(hits / draws - 0.3).max() <= 4.5 * sigma


@pytest.mark.parametrize("make", [FullBinaryTreeLoss, DenseFullBinaryTree])
def test_fbt_pairwise_joint_loss_by_tree_distance(make):
    depth, p, trials = 6, 0.05, 60000
    lost = make(depth, p).sample_at(
        np.arange(trials) * 0.04, np.random.default_rng(2317)
    )
    p_node = 1.0 - (1.0 - p) ** (1.0 / (depth + 1))
    # receivers whose nearest common ancestor is ``up`` levels above them
    # share ``depth + 1 - up`` path nodes and have ``up`` of their own
    for up, other in ((1, 1), (2, 2), (depth, 2**depth - 1)):
        shared, unshared = depth + 1 - up, up
        joint = 1.0 - 2.0 * (1.0 - p) + (1.0 - p_node) ** (shared + 2 * unshared)
        observed = (lost[0] & lost[other]).mean()
        sigma = math.sqrt(joint * (1.0 - joint) / trials)
        assert abs(observed - joint) <= 4.5 * sigma, (up, observed, joint)
    assert abs(lost.mean() - p) <= 4.5 * math.sqrt(p * (1 - p) / trials)


# ----------------------------------------------------------------------
# properties of losses()
# ----------------------------------------------------------------------
@st.composite
def _memoryless_models(draw):
    kind = draw(st.sampled_from(["bernoulli", "heterogeneous", "fbt"]))
    p = draw(st.floats(min_value=0.0, max_value=0.95))
    if kind == "bernoulli":
        return BernoulliLoss(draw(st.integers(1, 60)), p)
    if kind == "fbt":
        return FullBinaryTreeLoss(draw(st.integers(0, 6)), p)
    levels = [0.0, p, p / 2.0, 0.5]
    picks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    return HeterogeneousLoss(np.array([levels[i] for i in picks]))


@given(
    model=_memoryless_models(),
    seed=st.integers(0, 2**31),
    widths=st.lists(st.integers(0, 24), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_losses_are_sorted_distinct_in_range_and_the_scatter_of_sample(
    model, seed, widths
):
    by_coordinates = model.start(np.random.default_rng(seed))
    by_matrix = model.start(np.random.default_rng(seed))
    again = model.start(np.random.default_rng(seed))
    start = 0
    for width in widths:
        times = (start + np.arange(width)) * 0.04
        start += width
        rows, cols = by_coordinates.losses(times)
        assert rows.shape == cols.shape and rows.ndim == 1
        assert rows.dtype.kind == cols.dtype.kind == "i"
        if rows.size:
            assert 0 <= rows.min() and rows.max() < model.n_receivers
            assert 0 <= cols.min() and cols.max() < width
        # sorted by receiver then transmission, no pair twice
        assert (np.diff(rows * max(width, 1) + cols) > 0).all()
        scatter = np.zeros((model.n_receivers, width), dtype=bool)
        scatter[rows, cols] = True
        lost = by_matrix.sample(times)
        assert lost.dtype == bool and (lost == scatter).all()
        same_rows, same_cols = again.losses(times)
        assert (same_rows == rows).all() and (same_cols == cols).all()


@given(seed=st.integers(0, 2**31), width=st.integers(0, 12))
@settings(max_examples=30, deadline=None)
def test_a_stateful_samplers_losses_are_the_nonzero_of_its_matrix(seed, width):
    model = GilbertLoss.from_loss_and_burst(9, 0.3, 2.5, 0.04)
    times = np.arange(width) * 0.04
    rows, cols = model.start(np.random.default_rng(seed)).losses(times)
    lost = model.start(np.random.default_rng(seed)).sample(times)
    expected_rows, expected_cols = np.nonzero(lost)
    assert (rows == expected_rows).all() and (cols == expected_cols).all()


def test_a_vanishing_probability_does_not_wrap_the_running_sum():
    # hypothesis found p = 9.3e-122, r = t = 1: ``rng.geometric`` saturates
    # at 2**63 - 1, the cumulative sum went negative and indexed cell -2**63
    rng = np.random.default_rng(2318)
    assert not BernoulliLoss(1, 9.3e-122).sample_at(np.array([0.0]), rng).any()
    assert _lost_cells(10**6, 1e-300, rng).size == 0
    lost = _lost_cells(50, 5e-324, rng)
    assert lost.size == 0 and lost.dtype.kind == "i"


def test_zero_probability_draws_nothing():
    rng = np.random.default_rng(2319)
    before = rng.bit_generator.state
    rows, cols = BernoulliLoss(7, 0.0).start(rng).losses(np.arange(5.0))
    assert rows.size == cols.size == 0
    assert not FullBinaryTreeLoss(3, 0.0).sample_at(np.arange(5.0), rng).any()
    assert rng.bit_generator.state == before


def test_a_batch_that_falls_short_of_the_grid_is_continued(monkeypatch):
    # force the rare further batches: hand the walk eight gaps at a time on
    # a grid that holds ~400 losses and check that it still covers it
    import repro.sim.loss as loss_module

    origins = []
    real = loss_module._gap_walk

    def short(cells, p, rng, batch, origin):
        origins.append(origin)
        return real(cells, p, rng, 8, origin)

    monkeypatch.setattr(loss_module, "_gap_walk", short)
    lost = _lost_cells(4000, 0.1, np.random.default_rng(2320))
    assert len(origins) > 10 and origins[0] == -1
    assert (np.diff(lost) > 0).all() and 0 <= lost[0] and lost[-1] < 4000
    assert abs(lost.size - 400) < 5 * math.sqrt(4000 * 0.1 * 0.9)
