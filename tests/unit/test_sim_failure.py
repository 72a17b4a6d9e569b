"""Unit tests for repro.sim.failure: availability worlds and domain churn."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mc import run_sharded
from repro.resilience.faults import FaultPlan, ReceiverCrash
from repro.sim.failure import (
    GENERATOR_NAMES,
    AvailabilitySchedule,
    DomainOutageLoss,
    DomainTree,
    DownWindow,
    EmpiricalAvailability,
    PiecewiseRateAvailability,
    TraceAvailability,
    WeibullAvailability,
    member_down_windows,
    named_generator,
)
from repro.sim.loss import BernoulliLoss


class TestDownWindow:
    def test_duration_and_covers(self):
        window = DownWindow(1.0, 3.5)
        assert window.duration == 2.5
        assert window.covers(1.0)
        assert window.covers(2.0)
        assert not window.covers(3.5)  # half-open
        assert not window.covers(0.999)

    @pytest.mark.parametrize("start,end", [(-0.1, 1.0), (2.0, 2.0), (3.0, 1.0)])
    def test_rejects_degenerate(self, start, end):
        with pytest.raises(ValueError):
            DownWindow(start, end)


class TestAvailabilitySchedule:
    def test_merges_overlapping_and_touching(self):
        schedule = AvailabilitySchedule(
            [(5.0, 7.0), (1.0, 2.0), (2.0, 3.0), (6.0, 8.0)], horizon=10.0
        )
        assert [(w.start, w.end) for w in schedule.windows] == [
            (1.0, 3.0),
            (5.0, 8.0),
        ]

    def test_clips_to_horizon(self):
        schedule = AvailabilitySchedule([(8.0, 15.0), (12.0, 14.0)], horizon=10.0)
        assert [(w.start, w.end) for w in schedule.windows] == [(8.0, 10.0)]

    def test_down_at_matches_down_mask(self):
        schedule = AvailabilitySchedule([(1.0, 2.0), (4.0, 6.0)], horizon=8.0)
        times = np.linspace(0.0, 8.0, 81)
        mask = schedule.down_mask(times)
        assert mask.tolist() == [schedule.down_at(t) for t in times]

    def test_down_fraction(self):
        schedule = AvailabilitySchedule([(0.0, 1.0), (5.0, 7.0)], horizon=10.0)
        assert schedule.down_fraction() == pytest.approx(0.3)

    def test_union(self):
        a = AvailabilitySchedule([(0.0, 2.0)], horizon=10.0)
        b = AvailabilitySchedule([(1.0, 3.0), (8.0, 9.0)], horizon=10.0)
        union = AvailabilitySchedule.union([a, b], horizon=10.0)
        assert [(w.start, w.end) for w in union.windows] == [
            (0.0, 3.0),
            (8.0, 9.0),
        ]

    def test_equality_and_hash(self):
        a = AvailabilitySchedule([(1.0, 2.0)], horizon=5.0)
        b = AvailabilitySchedule([(1.0, 2.0)], horizon=5.0)
        c = AvailabilitySchedule([(1.0, 2.0)], horizon=6.0)
        assert a == b and hash(a) == hash(b)
        assert a != c


def _generator(name: str, seed: int = 3, horizon: float = 120.0):
    return named_generator(name, seed=seed, horizon=horizon)


class TestGenerators:
    @pytest.mark.parametrize("name", GENERATOR_NAMES)
    def test_schedule_is_pure_in_seed_and_entity(self, name):
        first = _generator(name).schedule_for("rack3")
        second = _generator(name).schedule_for("rack3")
        assert first == second
        # asking for other entities in between must not disturb the draw
        gen = _generator(name)
        gen.schedule_for("rack0")
        assert gen.schedule_for("rack3") == first

    @pytest.mark.parametrize("name", ("weibull", "piecewise", "gfs"))
    def test_entities_and_seeds_decorrelate(self, name):
        gen = _generator(name)
        assert gen.schedule_for("a") != gen.schedule_for("b")
        assert _generator(name, seed=4).schedule_for("a") != gen.schedule_for("a")

    @pytest.mark.parametrize("name", GENERATOR_NAMES)
    def test_windows_inside_horizon(self, name):
        gen = _generator(name)
        for entity in ("a", "b", "c"):
            for window in gen.schedule_for(entity).windows:
                assert 0.0 <= window.start < window.end <= gen.horizon

    @pytest.mark.parametrize("name", GENERATOR_NAMES)
    def test_availability_in_unit_interval(self, name):
        availability = _generator(name).availability()
        assert 0.0 < availability <= 1.0

    def test_weibull_availability_formula(self):
        gen = WeibullAvailability(
            seed=0, horizon=50.0, up_shape=1.0, up_scale=9.0,
            down_shape=1.0, down_scale=1.0,
        )
        # shape 1 collapses to exponential: availability = 9 / (9 + 1)
        assert gen.availability() == pytest.approx(0.9)

    def test_piecewise_rejects_empty_phases(self):
        with pytest.raises(ValueError):
            PiecewiseRateAvailability(seed=0, horizon=10.0, phases=())

    def test_gfs_rejects_non_increasing_quantiles(self):
        with pytest.raises(ValueError):
            EmpiricalAvailability(
                seed=0, horizon=10.0, mtbf=5.0,
                repair_quantiles=((0.9, 2.0), (0.8, 3.0), (1.0, 4.0)),
            )


class TestTraceAvailability:
    OUTAGES = {"rack0": [(1.0, 2.0), (6.0, 1.0)], "rack1": [(4.0, 1.5)]}

    def test_untraced_entity_is_always_up(self):
        trace = TraceAvailability(self.OUTAGES, horizon=7.0)
        assert trace.schedule_for("elsewhere").windows == ()

    def test_seed_changes_nothing(self):
        a = TraceAvailability(self.OUTAGES, horizon=7.0, seed=0)
        b = TraceAvailability(self.OUTAGES, horizon=7.0, seed=99)
        assert a.schedule_for("rack0") == b.schedule_for("rack0")

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            TraceAvailability({"x": [(-1.0, 2.0)]}, horizon=5.0)


class TestGeneratorSpecErrors:
    def test_named_generator_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown failure generator"):
            named_generator("entropy")


class TestDomainTree:
    def test_shape_and_membership(self):
        tree = DomainTree(8, branching=(2, 2))
        assert tree.leaves == (
            "site0/rack0", "site0/rack1", "site1/rack0", "site1/rack1",
        )
        assert len(tree.domains()) == 6  # 2 sites + 4 racks
        assert tree.domain_of(0) == "site0/rack0"
        assert tree.domain_of(7) == "site1/rack1"
        assert tree.ancestors_of(5) == ("site1", "site1/rack0")
        assert tree.receivers_in("site1") == (4, 5, 6, 7)
        assert tree.receivers_in("site0/rack1") == (2, 3)

    def test_receivers_by_leaf_partitions(self):
        tree = DomainTree(10, branching=(2, 2))
        by_leaf = tree.receivers_by_leaf()
        flat = sorted(r for members in by_leaf.values() for r in members)
        assert flat == list(range(10))

    def test_uneven_receivers_skip_empty_leaves(self):
        tree = DomainTree(2, branching=(2, 2))
        assert set(tree.receivers_by_leaf()) == {"site0/rack0", "site1/rack0"}

    def test_custom_levels_and_deep_default_names(self):
        tree = DomainTree(4, branching=(2, 2), levels=("pod", "shelf"))
        assert tree.domain_of(0) == "pod0/shelf0"
        deep = DomainTree(32, branching=(2, 2, 2, 2, 2))
        assert deep.domain_of(0).split("/")[-1] == "level40"

    def test_validation(self):
        with pytest.raises(ValueError, match="branching"):
            DomainTree(4, branching=())
        with pytest.raises(ValueError, match="receiver"):
            DomainTree(0)
        with pytest.raises(ValueError, match="level names"):
            DomainTree(4, branching=(2, 2), levels=("only-one",))
        tree = DomainTree(4)
        with pytest.raises(ValueError, match="unknown domain"):
            tree.receivers_in("site9")
        with pytest.raises(ValueError):
            tree.domain_of(4)

    def test_regular_alias(self):
        assert DomainTree.regular(8).leaves == DomainTree(8).leaves


class TestDomainOutageLoss:
    def _model(self, n=8, p=0.0, seed=3, horizon=60.0):
        return DomainOutageLoss(
            BernoulliLoss(n, p),
            DomainTree(n, branching=(2, 2)),
            WeibullAvailability(
                seed=seed, horizon=horizon,
                up_shape=1.5, up_scale=8.0, down_shape=0.9, down_scale=1.5,
            ),
        )

    def test_rejects_receiver_mismatch(self):
        with pytest.raises(ValueError, match="receivers"):
            DomainOutageLoss(
                BernoulliLoss(4, 0.01),
                DomainTree(8),
                WeibullAvailability(seed=0, horizon=10.0),
            )

    def test_zero_link_loss_is_pure_schedule(self, rng):
        model = self._model(p=0.0)
        times = np.linspace(0.0, 60.0, 200)
        lost = model.sample_at(times, rng)
        for receiver in range(model.n_receivers):
            expected = model.receiver_schedule(receiver).down_mask(times)
            assert np.array_equal(lost[receiver], expected)

    def test_domain_outage_hits_all_members_at_once(self, rng):
        model = self._model(p=0.0)
        tree = model.tree
        times = np.linspace(0.0, 60.0, 400)
        lost = model.sample_at(times, rng)
        for leaf, members in tree.receivers_by_leaf().items():
            reference = lost[members[0]]
            for member in members[1:]:
                assert np.array_equal(lost[member], reference)

    def test_marginal_combines_base_and_schedule(self):
        model = self._model(p=0.1)
        for receiver in range(model.n_receivers):
            down = model.receiver_schedule(receiver).down_fraction()
            assert model.marginal_loss_probability()[receiver] == pytest.approx(
                1.0 - 0.9 * (1.0 - down)
            )

    def test_sampler_honours_schedule(self):
        # the Bernoulli component consumes its stream differently batch vs
        # stepwise, but the scheduled outages are deterministic: with p=0
        # the sampler must reproduce the down-mask exactly, and with p>0
        # the scheduled windows still force a loss
        model = self._model(p=0.0)
        times = np.linspace(0.0, 50.0, 120)
        sampler = model.start(np.random.default_rng(7))
        stepwise = np.column_stack(
            [sampler.sample(np.array([t])) for t in times]
        )
        assert np.array_equal(stepwise, model._down_mask(times))

        lossy = self._model(p=0.3)
        lossy_sampler = lossy.start(np.random.default_rng(7))
        lost = lossy_sampler.sample(times)
        assert np.all(lost[lossy._down_mask(times)])

    def test_runs_in_process_only(self):
        # no spec: like TreeLoss, the model cannot cross the process
        # boundary, so only inline (jobs=1) sharded runs take it
        model = self._model(p=0.02)
        with pytest.raises(NotImplementedError):
            model.to_spec()
        run_sharded("nofec", model, replications=4)
        with pytest.raises(ValueError, match="jobs=1"):
            run_sharded("nofec", model, replications=4, jobs=2)


class TestChurnFaultPlan:
    def _world(self, n=8):
        tree = DomainTree(n, branching=(2, 2))
        generator = WeibullAvailability(
            seed=11, horizon=40.0,
            up_shape=1.5, up_scale=6.0, down_shape=0.9, down_scale=0.8,
        )
        return tree, generator

    def test_mode_validation(self):
        tree, generator = self._world()
        with pytest.raises(ValueError, match="mode"):
            member_down_windows(generator, 8, tree=tree, mode="meteor")

    def test_crash_mode_emits_per_receiver_crashes(self):
        tree, generator = self._world()
        crashes = member_down_windows(generator, 8, tree=tree, mode="crash")
        assert crashes
        assert all(isinstance(crash, ReceiverCrash) for crash in crashes)
        plan = FaultPlan(crashes=crashes)
        assert not any(plan.down)
        by_receiver = {}
        for crash in plan.crashes:
            by_receiver.setdefault(crash.receiver, []).append(crash)
        # every member of a leaf crashes in lockstep with its domain
        for leaf, members in tree.receivers_by_leaf().items():
            reference = sorted(
                (c.at, c.downtime) for c in by_receiver[members[0]]
            )
            for member in members[1:]:
                assert sorted(
                    (c.at, c.downtime) for c in by_receiver[member]
                ) == reference

    def test_outage_mode_partitions_leaf_groups(self):
        tree, generator = self._world()
        plan = FaultPlan(down=member_down_windows(generator, 8, tree=tree))
        assert plan.crashes == ()
        assert any(plan.down)
        # the outage reading is the crash reading's windows, member by member
        crashes = member_down_windows(generator, 8, tree=tree, mode="crash")
        assert [
            (receiver, lo, hi)
            for receiver, windows in enumerate(plan.down)
            for lo, hi in windows
        ] == [
            (crash.receiver, crash.at, pytest.approx(crash.rejoin_at))
            for crash in crashes
        ]

    def test_plan_is_deterministic(self):
        tree, generator = self._world()
        for mode in ("outage", "crash"):
            assert member_down_windows(
                generator, 8, tree=tree, mode=mode
            ) == member_down_windows(generator, 8, tree=tree, mode=mode)


class TestMemberBlackoutWindows:
    def test_flat_members_use_index_entities(self):
        generator = named_generator("weibull", seed=2, horizon=30.0)
        windows = member_down_windows(generator, 3)
        assert len(windows) == 3
        for member, member_windows in enumerate(windows):
            schedule = generator.schedule_for(str(member))
            assert member_windows == tuple(
                (w.start, w.end) for w in schedule.windows
            )

    def test_tree_members_share_leaf_windows(self):
        generator = named_generator("weibull", seed=2, horizon=30.0)
        tree = DomainTree(8, branching=(2, 2))
        windows = member_down_windows(generator, 8, tree=tree)
        for members in tree.receivers_by_leaf().values():
            for member in members[1:]:
                assert windows[member] == windows[members[0]]

    def test_offset_shifts_everything(self):
        generator = named_generator("weibull", seed=2, horizon=30.0)
        base = member_down_windows(generator, 2)
        shifted = member_down_windows(generator, 2, offset=1.5)
        for plain, moved in zip(base, shifted):
            assert moved == tuple((lo + 1.5, hi + 1.5) for lo, hi in plain)

    def test_validation(self):
        generator = named_generator("weibull", seed=2, horizon=30.0)
        with pytest.raises(ValueError, match="member"):
            member_down_windows(generator, 0)
        with pytest.raises(ValueError, match="offset"):
            member_down_windows(generator, 2, offset=-1.0)
        with pytest.raises(ValueError, match="receivers"):
            member_down_windows(generator, 4, tree=DomainTree(8))
