"""Statistical regression suite for the sharded MC engine.

Every check pins a seed and asserts the sharded estimate lands within the
standard ``compatible_with(sigmas=4)`` band of an independent reference:
closed forms where they exist (independent loss) and the exact FBT
recursions for shared tree loss.  A systematic bias anywhere in the
seed-tree / chunking / merge pipeline shows up here as a deterministic
failure, not a flake — the seeds are fixed, so these tests are exactly
reproducible.  Burst loss has no closed form; what can be pinned there is
that a figure point is a function of the figure seed and of nothing else
(``TestFigurePoints``).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import fbt, integrated, layered, nofec
from repro.experiments.figures_mc import fig15
from repro.mc import run_sharded
from repro.sim.loss import BernoulliLoss, FullBinaryTreeLoss

SEED = 0x5A17


class TestClosedFormAgreement:
    """Independent loss: the paper's closed forms are exact references."""

    def test_nofec_vs_equation(self):
        # fig11/12 leftmost regime: plain ARQ, independent loss
        expected = nofec.expected_transmissions(0.01, 10)
        result = run_sharded(
            "nofec",
            BernoulliLoss(10, 0.01),
            replications=600,
            rng=SEED,
            chunk_size=64,
        )
        assert result.compatible_with(expected)
        assert result.replications == 600

    def test_layered_vs_equation(self):
        # fig11's layered curve: k=7, h=1 block over independent loss
        expected = layered.expected_transmissions(7, 8, 0.01, 10)
        result = run_sharded(
            "layered",
            BernoulliLoss(10, 0.01),
            params={"k": 7, "h": 1},
            replications=400,
            rng=SEED,
            chunk_size=50,
        )
        assert result.compatible_with(expected)

    def test_integrated_immediate_vs_lower_bound(self):
        # under memoryless loss, integrated FEC 1 *is* the Equation 6
        # idealised scheme, so the lower bound is its exact expectation
        expected = integrated.expected_transmissions_lower_bound(7, 0.01, 20)
        result = run_sharded(
            "integrated_immediate",
            BernoulliLoss(20, 0.01),
            params={"k": 7},
            replications=400,
            rng=SEED,
        )
        assert result.compatible_with(expected)


class TestFBTExactAgreement:
    """Shared tree loss: the exact recursions of Section 4.1."""

    def test_nofec_on_tree(self):
        depth = 4
        expected = fbt.expected_transmissions_nofec(depth, 0.01)
        result = run_sharded(
            "nofec",
            FullBinaryTreeLoss(depth, 0.01),
            replications=600,
            rng=SEED,
            chunk_size=100,
        )
        assert result.compatible_with(expected)

    def test_integrated_on_tree(self):
        depth = 4
        expected = fbt.expected_transmissions_integrated(depth, 0.01, 7)
        result = run_sharded(
            "integrated_immediate",
            FullBinaryTreeLoss(depth, 0.01),
            params={"k": 7},
            replications=400,
            rng=SEED,
        )
        assert result.compatible_with(expected)


class TestAdaptiveStatistics:
    def test_adaptive_stop_stays_unbiased(self):
        # stopping early must not bias the estimate off the closed form
        expected = nofec.expected_transmissions(0.01, 10)
        result = run_sharded(
            "nofec",
            BernoulliLoss(10, 0.01),
            replications=4096,
            rng=SEED,
            target_ci=0.02,
        )
        assert result.ci95_halfwidth <= 0.02 or result.replications == 4096
        assert result.compatible_with(expected)

    def test_figure_records_adaptive_spend(self):
        # the figure CSV carries replications-used for every simulated point
        result = fig15(sizes=[1, 4], replications=256, rng=SEED, target_ci=0.3)
        series = result.get("no FEC")
        assert all(1 <= r < 256 for r in series.replications)  # stopped early
        csv = result.to_csv()
        assert csv.splitlines()[0] == "figure,series,x,y,stderr,replications"


def _points(result) -> dict:
    """``(label, x) -> (y, stderr, replications)`` of every point."""
    return {
        (s.label, x): point
        for s in result.series
        for x, *point in zip(s.x, s.y, s.errors, s.replications)
    }


class TestFigurePoints:
    """A simulated point depends on the figure seed and on nothing else."""

    def test_worker_count_does_not_move_a_point(self):
        kwargs = dict(sizes=[4], replications=16, rng=SEED)
        assert _points(fig15(mc_jobs=2, **kwargs)) == _points(fig15(**kwargs))

    def test_neighbouring_points_do_not_move_a_point(self):
        full = _points(fig15(sizes=[1, 4, 16], replications=16, rng=SEED))
        for sizes in ([16, 1], [4]):
            subset = _points(fig15(sizes=sizes, replications=16, rng=SEED))
            assert subset == {
                key: value for key, value in full.items() if key[1] in sizes
            }

    def test_every_kind_of_root_is_accepted(self):
        def run(rng):
            return _points(fig15(sizes=[1, 4], replications=8, rng=rng))

        assert run(SEED) == run(np.random.SeedSequence(SEED))
        assert run(np.random.default_rng(SEED)) == run(np.random.default_rng(SEED))
        assert run(SEED) != run(SEED + 1)
        assert len(run(None)) == 6
