"""Figure runners driven by Monte-Carlo simulation (Figures 11, 12, 14-16)
and the 10^6-receiver extension ``ext_mc_1e6``.

These cover the correlated-loss experiments where no closed form exists:
shared loss on a full binary tree (Section 4.1) and two-state Markov burst
loss (Section 4.2).  Independent-loss companion curves come from the
closed forms, exactly as the paper plots analysis and simulation together.

All runners accept ``replications`` and a ``rng`` seed; the defaults trade
a few percent of Monte-Carlo noise for benchmark-friendly runtimes, and the
replication count is scaled down as R grows (max-statistics concentrate).

Every simulated point is one :func:`repro.mc.run_sharded` call made by
:class:`FigurePoints` on the point's own branch of the figure seed, so a
point's value depends on the seed and on nothing else: not on the points
around it, not on the order they run in, and not on ``mc_jobs`` (worker
processes per point).  ``target_ci`` turns the replication count into a
cap (adaptive stopping); every simulated series carries its standard
errors and the replications it actually spent.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from repro.analysis import fbt, integrated, layered, nofec
from repro.experiments.series import FigureResult, Series
from repro.mc import MCResult, PAPER_TIMING, burst_length_histogram, run_sharded
from repro.mc._common import resolve_rng
from repro.mc.sharded import root_sequence
from repro.sim.loss import BernoulliLoss, FullBinaryTreeLoss, GilbertLoss, LossModel

__all__ = [
    "FigurePoints",
    "simulated_series",
    "fig11",
    "fig12",
    "fig14",
    "fig15",
    "fig16",
    "ext_mc_1e6",
]

DEFAULT_P = 0.01


def _scaled_reps(base: int, models: Sequence[LossModel]) -> list[int]:
    """Fewer replications for huge trees: the estimator variance shrinks
    and the per-replication cost grows linearly with R."""

    def scaled(n_receivers: int) -> int:
        if n_receivers >= 2**14:
            return max(10, base // 8)
        if n_receivers >= 2**10:
            return max(20, base // 4)
        return base

    return [scaled(model.n_receivers) for model in models]


def simulated_series(
    label: str, xs: Sequence[float], points: list[MCResult]
) -> Series:
    """A curve of simulated points, with standard errors and measured spend."""
    return Series(
        label,
        [float(x) for x in xs],
        [point.mean for point in points],
        [point.stderr for point in points],
        [point.replications for point in points],
    )


class FigurePoints:
    """Runs one figure's simulated points, each on its own seed branch.

    A point's replication tree is rooted at ``(figure seed,
    crc32("figure/label/x"))`` — deterministic, independent of evaluation
    order, and unmoved when the figure adds, drops or reorders points.
    ``rng`` is any root :func:`repro.mc.sharded.root_sequence` accepts.
    """

    def __init__(
        self,
        figure_id: str,
        rng: np.random.SeedSequence | np.random.Generator | int | None,
        mc_jobs: int = 1,
        target_ci: float | None = None,
    ):
        self.figure_id = figure_id
        self.root = root_sequence(rng)
        self.mc_jobs = mc_jobs
        self.target_ci = target_ci

    def point(
        self,
        simulator: str,
        model: LossModel,
        params: dict,
        label: str,
        x: float,
        cap: int,
    ) -> MCResult:
        """``simulator`` under ``model``: ``cap`` replications, or fewer
        when ``target_ci`` is reached first."""
        key = zlib.crc32(f"{self.figure_id}/{label}/{x:g}".encode())
        root = np.random.SeedSequence(
            entropy=self.root.entropy, spawn_key=(*self.root.spawn_key, key)
        )
        return run_sharded(
            simulator,
            model,
            params=params,
            replications=cap,
            jobs=self.mc_jobs,
            target_ci=self.target_ci,
            rng=root,
        )

    def curve(
        self,
        simulator: str,
        models: Sequence[LossModel],
        params: dict,
        label: str,
        caps: Sequence[int],
    ) -> Series:
        """One point per model, at ``x = R`` of that model."""
        sizes = [model.n_receivers for model in models]
        points = [
            self.point(simulator, model, params, label, size, cap)
            for model, size, cap in zip(models, sizes, caps)
        ]
        return simulated_series(label, sizes, points)


def fig11(
    p: float = DEFAULT_P,
    k: int = 7,
    h: int = 1,
    depths: list[int] | None = None,
    replications: int = 120,
    rng: np.random.SeedSequence | np.random.Generator | int | None = 0,
    mc_jobs: int = 1,
    target_ci: float | None = None,
) -> FigureResult:
    """Figure 11: layered FEC vs no FEC under independent and FBT shared loss."""
    engine = FigurePoints("fig11", rng, mc_jobs, target_ci)
    depths = list(range(0, 18, 2)) if depths is None else depths
    sizes = [2**d for d in depths]
    xs = list(map(float, sizes))
    trees = [FullBinaryTreeLoss(depth, p) for depth in depths]
    caps = _scaled_reps(replications, trees)
    return FigureResult(
        figure_id="fig11",
        title=f"Layered FEC, p = {p}, k = {k}, h = {h}: "
        "independent vs FBT loss",
        x_label="R",
        y_label="transmissions E[M]",
        series=[
            Series(
                "non-FEC indep. loss",
                xs,
                [nofec.expected_transmissions(p, r) for r in sizes],
            ),
            Series(
                "layered FEC indep. loss",
                xs,
                [
                    layered.expected_transmissions(k, k + h, p, r)
                    for r in sizes
                ],
            ),
            engine.curve("nofec", trees, {}, "non-FEC FBT loss", caps),
            engine.curve(
                "layered", trees, {"k": k, "h": h}, "layered FEC FBT loss", caps
            ),
            Series(
                "non-FEC FBT exact",
                xs,
                [fbt.expected_transmissions_nofec(d, p) for d in depths],
            ),
        ],
        notes=(
            "independent-loss and FBT-exact curves analytical; "
            "FBT loss curves simulated"
        ),
    )


def fig12(
    p: float = DEFAULT_P,
    k: int = 7,
    depths: list[int] | None = None,
    replications: int = 120,
    rng: np.random.SeedSequence | np.random.Generator | int | None = 0,
    mc_jobs: int = 1,
    target_ci: float | None = None,
) -> FigureResult:
    """Figure 12: integrated FEC vs no FEC, independent vs FBT shared loss."""
    engine = FigurePoints("fig12", rng, mc_jobs, target_ci)
    depths = list(range(0, 18, 2)) if depths is None else depths
    sizes = [2**d for d in depths]
    xs = list(map(float, sizes))
    trees = [FullBinaryTreeLoss(depth, p) for depth in depths]
    caps = _scaled_reps(replications, trees)
    return FigureResult(
        figure_id="fig12",
        title=f"Integrated FEC, p = {p}, k = {k}: independent vs FBT loss",
        x_label="R",
        y_label="transmissions E[M]",
        series=[
            Series(
                "non-FEC indep. loss",
                xs,
                [nofec.expected_transmissions(p, r) for r in sizes],
            ),
            Series(
                "integrated FEC indep. loss",
                xs,
                [
                    integrated.expected_transmissions_lower_bound(k, p, r)
                    for r in sizes
                ],
            ),
            engine.curve("nofec", trees, {}, "non-FEC FBT loss", caps),
            engine.curve(
                "integrated_immediate",
                trees,
                {"k": k},
                "integrated FEC FBT loss",
                caps,
            ),
            Series(
                "non-FEC FBT exact",
                xs,
                [fbt.expected_transmissions_nofec(d, p) for d in depths],
            ),
            Series(
                "integrated FEC FBT exact",
                xs,
                [fbt.expected_transmissions_integrated(d, p, k) for d in depths],
            ),
        ],
        notes="independent-loss and FBT-exact curves analytical; "
        "FBT loss curves simulated",
    )


def fig14(
    p: float = DEFAULT_P,
    mean_burst: float = 2.0,
    n_packets: int = 1_000_000,
    max_length: int = 15,
    rng: np.random.Generator | int | None = 0,
) -> FigureResult:
    """Figure 14: burst-length distribution, Bernoulli vs Markov channel."""
    rng = resolve_rng(rng)
    bursty = burst_length_histogram(p, n_packets, mean_burst, rng=rng)
    independent = burst_length_histogram(p, n_packets, None, rng=rng)

    def pad(histogram) -> list[float]:
        counts = dict(histogram.as_rows())
        return [float(counts.get(length, 0)) for length in range(1, max_length + 1)]

    xs = list(map(float, range(1, max_length + 1)))
    return FigureResult(
        figure_id="fig14",
        title=f"Burst length distribution, p = {p}",
        x_label="burst length",
        y_label="occurrences",
        series=[
            Series("no burst loss", xs, pad(independent)),
            Series(f"burst loss, b = {mean_burst:g}", xs, pad(bursty)),
        ],
        notes=f"{n_packets} packets at Delta = 40 ms through one receiver",
    )


def _burst_models(
    sizes: list[int] | None, p: float, mean_burst: float
) -> list[GilbertLoss]:
    return [
        GilbertLoss.from_loss_and_burst(
            size, p, mean_burst, PAPER_TIMING.packet_interval
        )
        for size in sizes or [1, 10, 100, 1000, 10000]
    ]


def fig15(
    p: float = DEFAULT_P,
    mean_burst: float = 2.0,
    sizes: list[int] | None = None,
    replications: int = 150,
    rng: np.random.SeedSequence | np.random.Generator | int | None = 0,
    mc_jobs: int = 1,
    target_ci: float | None = None,
) -> FigureResult:
    """Figure 15: burst loss — layered FEC (7+1), (7+3) vs no FEC."""
    engine = FigurePoints("fig15", rng, mc_jobs, target_ci)
    k = 7
    models = _burst_models(sizes, p, mean_burst)
    caps = _scaled_reps(replications, models)
    series = [engine.curve("nofec", models, {}, "no FEC", caps)]
    for h in (1, 3):
        series.append(
            engine.curve(
                "layered", models, {"k": k, "h": h}, f"FEC layer ({k}+{h})", caps
            )
        )
    return FigureResult(
        figure_id="fig15",
        title=f"Burst loss and FEC layer, p = {p}, b = {mean_burst:g}",
        x_label="R",
        y_label="transmissions E[M]",
        series=series,
    )


def fig16(
    p: float = DEFAULT_P,
    mean_burst: float = 2.0,
    sizes: list[int] | None = None,
    group_sizes: tuple[int, ...] = (7, 20, 100),
    replications: int = 150,
    rng: np.random.SeedSequence | np.random.Generator | int | None = 0,
    mc_jobs: int = 1,
    target_ci: float | None = None,
) -> FigureResult:
    """Figure 16: burst loss — integrated FEC 1 vs FEC 2 for k = 7, 20, 100."""
    engine = FigurePoints("fig16", rng, mc_jobs, target_ci)
    models = _burst_models(sizes, p, mean_burst)
    caps = _scaled_reps(replications, models)
    series = [engine.curve("nofec", models, {}, "no FEC", caps)]
    schemes = (
        ("integrated_immediate", "integrated FEC 1"),
        ("integrated_rounds", "integrated FEC 2"),
    )
    for k in group_sizes:
        for simulator, prefix in schemes:
            series.append(
                engine.curve(simulator, models, {"k": k}, f"{prefix}, k={k}", caps)
            )
    return FigureResult(
        figure_id="fig16",
        title=f"Burst loss and integrated FEC, p = {p}, b = {mean_burst:g}",
        x_label="R",
        y_label="transmissions E[M]",
        series=series,
    )


def ext_mc_1e6(
    p: float = DEFAULT_P,
    group_sizes: tuple[int, ...] = (7, 20, 100),
    sizes: tuple[int, ...] = (10**4, 10**5, 10**6),
    depth: int = 20,
    replications: int = 64,
    rng: np.random.SeedSequence | np.random.Generator | int | None = 0,
) -> FigureResult:
    """The right-hand end of the paper's R axis, simulated.

    The paper draws every E[M] curve out to R = 10^6 but could only
    compute that end.  Loss-coordinate sampling makes a replication cost
    its losses, so here it is simulated: integrated FEC 2 under
    independent loss for each ``k`` against Equation 6 (Figures 5, 7, 8),
    and integrated FEC 1 on the height-``depth`` full binary tree
    (R = 2^20 = 1 048 576 by default) against the exact recursion of
    Section 4.1 (Figure 12).
    """
    engine = FigurePoints("ext_mc_1e6", rng)
    xs = list(map(float, sizes))
    models = [BernoulliLoss(size, p) for size in sizes]
    series = []
    for k in group_sizes:
        series.append(
            engine.curve(
                "integrated_rounds",
                models,
                {"k": k},
                f"integrated FEC 2, k={k}",
                [replications] * len(models),
            )
        )
        series.append(
            Series(
                f"Equation 6, k={k}",
                xs,
                [
                    integrated.expected_transmissions_lower_bound(k, p, size)
                    for size in sizes
                ],
            )
        )
    k = group_sizes[0]
    series.append(
        engine.curve(
            "integrated_immediate",
            [FullBinaryTreeLoss(depth, p)],
            {"k": k},
            f"integrated FEC 1 FBT loss, k={k}",
            [replications],
        )
    )
    series.append(
        Series(
            f"FBT exact, k={k}",
            [float(2**depth)],
            [fbt.expected_transmissions_integrated(depth, p, k)],
        )
    )
    return FigureResult(
        figure_id="ext_mc_1e6",
        title=f"Integrated FEC simulated out to 10^6 receivers, p = {p}",
        x_label="R",
        y_label="transmissions E[M]",
        series=series,
        notes="simulated series carry standard errors; "
        "Equation 6 and FBT exact are closed forms",
    )
