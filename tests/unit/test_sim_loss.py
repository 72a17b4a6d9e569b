"""Unit tests for the loss models."""

import math

import numpy as np
import pytest

from repro.sim.loss import (
    BernoulliLoss,
    FullBinaryTreeLoss,
    GilbertLoss,
    HeterogeneousLoss,
    TreeLoss,
    two_class_probabilities,
)
from repro.sim.tree import full_binary_tree, star_topology


class TestBernoulliLoss:
    def test_shape_and_rate(self, rng):
        model = BernoulliLoss(100, 0.1)
        lost = model.sample_at(np.arange(200, dtype=float), rng)
        assert lost.shape == (100, 200)
        assert abs(lost.mean() - 0.1) < 0.01

    def test_zero_loss(self, rng):
        model = BernoulliLoss(5, 0.0)
        assert not model.sample_at(np.arange(10, dtype=float), rng).any()

    def test_marginal(self):
        assert (BernoulliLoss(3, 0.2).marginal_loss_probability() == 0.2).all()

    def test_sample_one_shape(self, rng):
        assert BernoulliLoss(7, 0.5).sample_one(0.0, rng).shape == (7,)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            BernoulliLoss(5, 1.0)
        with pytest.raises(ValueError):
            BernoulliLoss(5, -0.1)

    def test_invalid_receiver_count(self):
        with pytest.raises(ValueError):
            BernoulliLoss(0, 0.1)

    def test_times_must_be_sorted(self, rng):
        model = BernoulliLoss(2, 0.1)
        with pytest.raises(ValueError, match="non-decreasing"):
            model.sample_at(np.array([2.0, 1.0]), rng)

    @pytest.mark.parametrize(
        "times",
        [[math.nan], [math.nan, 1.0], [0.0, math.nan], [0.0, math.nan, 2.0]],
    )
    def test_nan_times_are_rejected(self, rng, times):
        # ``np.diff(times) < 0`` is False for NaN, so a reversal search
        # lets it through; the order check must reject it at any position
        with pytest.raises(ValueError, match="NaN"):
            BernoulliLoss(2, 0.1).sample_at(np.array(times), rng)

    def test_sample_one_rejects_nan(self, rng):
        with pytest.raises(ValueError, match="NaN"):
            BernoulliLoss(2, 0.1).sample_one(math.nan, rng)

    def test_repeated_single_and_empty_times_are_accepted(self, rng):
        model = BernoulliLoss(2, 0.1)
        assert model.sample_at(np.array([0.0, 0.0, 1.0, 1.0]), rng).shape == (2, 4)
        assert model.sample_at(np.array([3.0]), rng).shape == (2, 1)
        assert model.sample_at(np.array([]), rng).shape == (2, 0)


class TestHeterogeneousLoss:
    def test_per_receiver_rates(self, rng):
        probabilities = np.array([0.0, 0.05, 0.5])
        model = HeterogeneousLoss(probabilities)
        lost = model.sample_at(np.arange(20000, dtype=float), rng)
        assert not lost[0].any()
        assert abs(lost[1].mean() - 0.05) < 0.01
        assert abs(lost[2].mean() - 0.5) < 0.02

    def test_two_class_probabilities(self):
        probabilities = two_class_probabilities(100, 0.25, 0.01, 0.25)
        assert (probabilities == 0.01).sum() == 75
        assert (probabilities == 0.25).sum() == 25

    def test_two_class_rounding(self):
        # 1% of 150 receivers rounds to 2 high-loss receivers
        probabilities = two_class_probabilities(150, 0.01)
        assert (probabilities == 0.25).sum() == 2

    def test_two_class_bounds(self):
        assert (two_class_probabilities(10, 0.0) == 0.01).all()
        assert (two_class_probabilities(10, 1.0) == 0.25).all()
        with pytest.raises(ValueError):
            two_class_probabilities(10, 1.5)

    def test_invalid_vector(self):
        with pytest.raises(ValueError):
            HeterogeneousLoss(np.array([[0.1]]))
        with pytest.raises(ValueError):
            HeterogeneousLoss(np.array([0.1, 1.0]))


class TestGilbertLoss:
    def test_paper_parameterisation(self):
        model = GilbertLoss.from_loss_and_burst(1, 0.01, 2.0, 0.040)
        # stationary loss probability must equal p
        assert math.isclose(model.stationary_loss_probability, 0.01)
        # exit rate: -ln(1 - 1/2)/0.04 = ln(2)/0.04
        assert math.isclose(model.rate_bad_to_good, math.log(2) / 0.040)

    def test_stationary_rate_observed(self, rng):
        model = GilbertLoss.from_loss_and_burst(200, 0.05, 2.0, 0.040)
        lost = model.sample_at(np.arange(500) * 0.040, rng)
        assert abs(lost.mean() - 0.05) < 0.005

    def test_mean_burst_length_observed(self, rng):
        from repro.mc.burst import run_lengths

        model = GilbertLoss.from_loss_and_burst(1, 0.05, 3.0, 0.040)
        lost = model.sample_chain(np.arange(400_000) * 0.040, rng)
        lengths = run_lengths(lost)
        assert abs(lengths.mean() - 3.0) < 0.25

    def test_temporal_correlation_present(self, rng):
        # P(loss | previous loss) should be ~ 1 - 1/b >> p
        model = GilbertLoss.from_loss_and_burst(1, 0.01, 2.0, 0.040)
        lost = model.sample_chain(np.arange(300_000) * 0.040, rng)
        prev, curr = lost[:-1], lost[1:]
        conditional = curr[prev].mean()
        assert 0.4 < conditional < 0.6  # theory: ~0.5 for b=2

    def test_sampler_carries_state_across_calls(self, rng):
        model = GilbertLoss(1, rate_good_to_bad=0.1, rate_bad_to_good=0.1)
        sampler = model.start(rng)
        first = sampler.sample(np.array([0.0]))
        # zero elapsed time: state cannot have changed
        second = sampler.sample(np.array([0.0]))
        assert first[0, 0] == second[0, 0]

    def test_sampler_rejects_time_reversal(self, rng):
        model = GilbertLoss(2, 1.0, 1.0)
        sampler = model.start(rng)
        sampler.sample(np.array([5.0]))
        with pytest.raises(ValueError, match="cannot sample at earlier"):
            sampler.sample(np.array([1.0]))

    def test_sampler_rejects_nan_and_keeps_its_state(self, rng):
        # a NaN instant used to freeze every chain (``gap > 0`` is False),
        # set ``last_time = nan`` and so disarm the forward-only guard
        sampler = GilbertLoss(2, 1.0, 1.0).start(rng)
        with pytest.raises(ValueError, match="NaN"):
            sampler.sample(np.array([0.0, math.nan, math.nan]))
        assert sampler.last_time == -math.inf
        sampler.sample(np.array([1.0]))
        with pytest.raises(ValueError, match="cannot sample at earlier"):
            sampler.sample(np.array([0.5]))

    def test_transition_probabilities_limits(self):
        model = GilbertLoss(1, 1.0, 9.0)  # pi_bad = 0.1
        p01_short, p11_short = model.transition_probabilities(1e-9)
        assert p01_short < 1e-6
        assert p11_short > 1 - 1e-6
        p01_long, p11_long = model.transition_probabilities(1e9)
        assert math.isclose(p01_long, 0.1, abs_tol=1e-9)
        assert math.isclose(p11_long, 0.1, abs_tol=1e-9)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GilbertLoss(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            GilbertLoss.from_loss_and_burst(1, 0.01, 1.0, 0.04)  # burst <= 1
        with pytest.raises(ValueError):
            GilbertLoss.from_loss_and_burst(1, 0.0, 2.0, 0.04)

    def test_sample_chain_empty_times(self, rng):
        model = GilbertLoss(1, 1.0, 1.0)
        assert model.sample_chain(np.array([]), rng).size == 0


class TestFullBinaryTreeLoss:
    def test_marginal_rate_matches_p(self, rng):
        model = FullBinaryTreeLoss(5, 0.05)
        lost = model.sample_at(np.arange(3000, dtype=float), rng)
        assert lost.shape == (32, 3000)
        assert abs(lost.mean() - 0.05) < 0.005

    def test_node_probability_formula(self):
        model = FullBinaryTreeLoss(3, 0.1)
        # p = 1 - (1 - p_node)^(d+1)
        assert math.isclose(1 - (1 - model.p_node) ** 4, 0.1)

    def test_depth_zero_is_single_bernoulli(self, rng):
        model = FullBinaryTreeLoss(0, 0.3)
        assert model.n_receivers == 1
        lost = model.sample_at(np.arange(20000, dtype=float), rng)
        assert abs(lost.mean() - 0.3) < 0.02

    def test_spatial_correlation_positive(self, rng):
        # siblings share d of d+1 path nodes -> strongly correlated losses
        model = FullBinaryTreeLoss(6, 0.05)
        lost = model.sample_at(np.arange(20000, dtype=float), rng)
        both = (lost[0] & lost[1]).mean()
        independent = lost[0].mean() * lost[1].mean()
        assert both > 3 * independent

    def test_root_loss_hits_everyone(self, rng):
        # with depth 1 and large p, whole-tree losses must occur
        model = FullBinaryTreeLoss(1, 0.5)
        lost = model.sample_at(np.arange(2000, dtype=float), rng)
        all_lost_fraction = lost.all(axis=0).mean()
        assert all_lost_fraction > 0.05

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            FullBinaryTreeLoss(-1, 0.1)
        with pytest.raises(ValueError):
            FullBinaryTreeLoss(2, 1.0)


class TestTreeLoss:
    def test_star_matches_bernoulli_marginals(self, rng):
        tree = star_topology(50)
        model = TreeLoss(tree, 0, node_loss=0.1)
        # receivers are leaves 1..50; root also drops -> marginal differs
        marginal = model.marginal_loss_probability()
        assert np.allclose(marginal, 1 - 0.9 * 0.9)

    def test_source_lossless_star_is_independent(self, rng):
        tree = star_topology(30)
        node_loss = {node: (0.0 if node == 0 else 0.1) for node in tree}
        model = TreeLoss(tree, 0, node_loss=node_loss)
        lost = model.sample_at(np.arange(5000, dtype=float), rng)
        assert abs(lost.mean() - 0.1) < 0.01
        corr = np.corrcoef(lost[0], lost[1])[0, 1]
        assert abs(corr) < 0.05

    def test_fbt_graph_matches_fbt_model_marginal(self, rng):
        depth, p = 4, 0.1
        p_node = 1 - (1 - p) ** (1 / (depth + 1))
        model = TreeLoss(full_binary_tree(depth), 0, node_loss=p_node)
        assert model.n_receivers == 16
        assert np.allclose(model.marginal_loss_probability(), p)

    def test_rejects_non_tree(self):
        import networkx as nx

        graph = nx.DiGraph([(0, 1), (1, 2), (0, 2)])  # diamond: two parents
        with pytest.raises(ValueError, match="arborescence"):
            TreeLoss(graph, 0)

    def test_rejects_wrong_root(self):
        import networkx as nx

        graph = nx.DiGraph([(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="not the root"):
            TreeLoss(graph, 1)

    def test_explicit_receiver_order(self, rng):
        tree = star_topology(3)
        model = TreeLoss(tree, 0, receivers=[3, 1, 2], node_loss=0.0)
        assert model.receivers == [3, 1, 2]
        assert model.n_receivers == 3


class TestSpecRoundTrip:
    """spec -> model -> spec is exact for every registered kind, and every
    malformed spec fails with a ValueError naming the valid alternatives."""

    @staticmethod
    def representative_models():
        """One instance per registered spec kind (keep in sync check below)."""
        from repro.sim.loss import BurstyTreeLoss, ScriptedLoss

        schedule = np.zeros((3, 7), dtype=bool)
        schedule[1, ::2] = True
        return {
            "bernoulli": BernoulliLoss(9, 0.07),
            "heterogeneous": HeterogeneousLoss(
                np.array([0.01, 0.2, 0.33])
            ),
            "gilbert": GilbertLoss(6, 0.4, 7.5),
            "fbt": FullBinaryTreeLoss(3, 0.05),
            "bursty_tree": BurstyTreeLoss(3, 0.05, 4.0, 0.02),
            "scripted": ScriptedLoss(schedule),
        }

    def test_every_registered_kind_is_covered(self):
        from repro.sim.loss import spec_kinds

        assert set(self.representative_models()) == set(spec_kinds())

    @pytest.mark.parametrize(
        "kind", ["bernoulli", "heterogeneous", "gilbert", "fbt",
                 "bursty_tree", "scripted"]
    )
    def test_round_trip_exact(self, kind):
        import json

        from repro.sim.loss import loss_model_from_spec

        model = self.representative_models()[kind]
        spec = model.to_spec()
        # the spec must survive a real JSON hop
        rebuilt = loss_model_from_spec(json.loads(json.dumps(spec)))
        assert rebuilt.to_spec() == spec
        times = np.linspace(0.0, 10.0, 50)
        a = model.sample_at(times, np.random.default_rng(11))
        b = rebuilt.sample_at(times, np.random.default_rng(11))
        assert (a == b).all()
        assert np.allclose(
            model.marginal_loss_probability(),
            rebuilt.marginal_loss_probability(),
        )

    def test_not_a_spec(self):
        from repro.sim.loss import loss_model_from_spec

        for bad in (None, 42, "bernoulli", [], {}):
            with pytest.raises(ValueError, match="not a loss-model spec"):
                loss_model_from_spec(bad)

    def test_unknown_kind_names_known_kinds(self):
        from repro.sim.loss import loss_model_from_spec

        with pytest.raises(ValueError, match="bernoulli") as excinfo:
            loss_model_from_spec({"kind": "martian"})
        assert "martian" in str(excinfo.value)

    def test_missing_keys_name_valid_keys(self):
        from repro.sim.loss import loss_model_from_spec

        with pytest.raises(
            ValueError, match=r"missing key\(s\) \['p'\]"
        ) as excinfo:
            loss_model_from_spec({"kind": "bernoulli", "n_receivers": 4})
        assert "n_receivers" in str(excinfo.value)

    def test_unknown_keys_name_valid_keys(self):
        from repro.sim.loss import loss_model_from_spec

        with pytest.raises(ValueError, match=r"unknown key\(s\) \['typo'\]"):
            loss_model_from_spec(
                {"kind": "bernoulli", "n_receivers": 4, "p": 0.1, "typo": 1}
            )

    def test_never_raises_bare_keyerror(self):
        from repro.sim.loss import loss_model_from_spec, spec_kinds

        for kind in spec_kinds():
            with pytest.raises(ValueError):
                loss_model_from_spec({"kind": kind})
