"""Integration: the paper's 10^6-receiver end of the R axis, simulated.

``ext_mc_1e6`` at reduced replications: every simulated point sits within
twice its 95 % confidence half-width of the closed form the paper plots
there, the curves keep the paper's shape, and a million-receiver
replication stays inside a memory budget the dense ``(R, T)`` matrix alone
would break (160 MB of float64 uniforms at k = 20).
"""

import tracemalloc

import pytest

from repro.experiments.figures_mc import ext_mc_1e6
from repro.experiments.registry import EXPERIMENTS
from repro.mc import run_sharded
from repro.sim.loss import BernoulliLoss

GROUP_SIZES = (7, 20, 100)
SIZES = (10.0**4, 10.0**5, 10.0**6)


class TestExtMc1e6:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_mc_1e6(replications=24, rng=0)

    def test_registered_beside_the_other_runners(self):
        assert EXPERIMENTS["ext_mc_1e6"].runner is ext_mc_1e6
        assert EXPERIMENTS["ext_mc_1e6"].method == "extension"

    def test_every_point_within_twice_its_ci_of_the_closed_form(self, result):
        pairs = [
            (f"integrated FEC 2, k={k}", f"Equation 6, k={k}")
            for k in GROUP_SIZES
        ] + [("integrated FEC 1 FBT loss, k=7", "FBT exact, k=7")]
        for simulated_label, exact_label in pairs:
            simulated, exact = result.get(simulated_label), result.get(exact_label)
            assert simulated.x == exact.x
            assert simulated.replications == [24] * len(simulated.x)
            for y, stderr, expected in zip(simulated.y, simulated.errors, exact.y):
                assert abs(y - expected) <= 2 * 1.96 * stderr, (
                    simulated_label, y, stderr, expected,
                )

    def test_reaches_the_papers_last_decade(self, result):
        assert result.get("integrated FEC 2, k=7").x == list(SIZES)
        assert result.get("integrated FEC 1 FBT loss, k=7").x == [2.0**20]

    def test_larger_k_closer_to_one_and_rising_in_r(self, result):
        # Figure 7's claim, on simulated points
        curves = [result.get(f"integrated FEC 2, k={k}") for k in GROUP_SIZES]
        for size in SIZES:
            k7, k20, k100 = (curve.value_at(size) for curve in curves)
            assert 1.0 < k100 < k20 < k7
        for curve in curves:
            assert curve.y[0] < curve.y[-1]

    def test_shared_loss_needs_fewer_transmissions_than_independent(self, result):
        # Figure 12's claim at R ~ 10^6
        tree = result.get("integrated FEC 1 FBT loss, k=7").y[0]
        assert tree < result.get("integrated FEC 2, k=7").value_at(10.0**6)


def test_a_million_receiver_replication_stays_under_64_mb():
    model = BernoulliLoss(10**6, 0.01)
    tracemalloc.start()
    try:
        result = run_sharded(
            "integrated_rounds", model, params={"k": 20}, replications=1, rng=0
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.replications == 1 and 1.2 <= result.mean <= 1.35
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
