"""Figure runners driven by Monte-Carlo simulation (Figures 11, 12, 14-16)
and the 10^6-receiver extension ``ext_mc_1e6``.

These cover the correlated-loss experiments where no closed form exists:
shared loss on a full binary tree (Section 4.1) and two-state Markov burst
loss (Section 4.2).  Independent-loss companion curves come from the
closed forms, exactly as the paper plots analysis and simulation together.

All runners accept ``replications`` and a ``rng`` seed; the defaults trade
a few percent of Monte-Carlo noise for benchmark-friendly runtimes, and the
replication count is scaled down as R grows (max-statistics concentrate).

The MC figures (11, 12, 15, 16) additionally accept the sharded-execution
knobs ``mc_jobs`` / ``target_ci`` / ``chunk_size``: setting any of them
routes every simulated point through :func:`repro.mc.run_sharded` — chunked
streaming execution, optional process fan-out, optional adaptive stopping —
with each point rooted at its own deterministic branch of the figure seed
(sharded results do not depend on ``mc_jobs``).  The defaults keep the
original serial path, and its numbers, untouched.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.analysis import fbt, integrated, layered, nofec
from repro.experiments.series import FigureResult, Series
from repro.mc import (
    PAPER_TIMING,
    burst_length_histogram,
    run_sharded,
    simulate_integrated_immediate,
    simulate_integrated_rounds,
    simulate_layered,
    simulate_nofec,
)
from repro.fec.registry import DEFAULT_CODEC, get_codec
from repro.mc._common import resolve_rng
from repro.sim.loss import BernoulliLoss, FullBinaryTreeLoss, GilbertLoss

__all__ = ["fig11", "fig12", "fig14", "fig15", "fig16", "ext_mc_1e6"]

DEFAULT_P = 0.01


def _effective_h(codec: str, k: int, h: int) -> int:
    """Clamp a requested parity count onto the codec's supported lattice.

    The figure grids were designed for RSE's any-``h`` geometry; constrained
    codes (``xor``: h = 1, ``rect``: h = rows + cols) substitute their
    nearest supported count so per-scheme sweeps stay runnable.  The default
    codec passes through untouched.
    """
    if codec == DEFAULT_CODEC:
        return h
    return get_codec(codec).nearest_h(k, h)


def _scaled_reps(base: int, n_receivers: int) -> int:
    """Fewer replications for huge trees: the estimator variance shrinks
    and the per-replication cost grows linearly with R."""
    if n_receivers >= 2**14:
        return max(10, base // 8)
    if n_receivers >= 2**10:
        return max(20, base // 4)
    return base


class _ShardedFigure:
    """Per-figure adapter from figure seeds to sharded point runs.

    Each simulated point gets its own root in the replication seed tree,
    addressed by ``(figure entropy, crc32("label/x"))`` — deterministic,
    independent of evaluation order, and stable when a figure adds or
    drops points.
    """

    def __init__(
        self,
        figure_id: str,
        rng: np.random.Generator | int | None,
        mc_jobs: int,
        target_ci: float | None,
        chunk_size: int | None,
    ):
        if isinstance(rng, np.random.Generator):
            entropy = int(rng.integers(2**63 - 1))
        elif rng is None:
            entropy = np.random.SeedSequence().entropy
        else:
            entropy = int(rng)
        self.figure_id = figure_id
        self.entropy = entropy
        self.mc_jobs = mc_jobs
        self.target_ci = target_ci
        self.chunk_size = chunk_size

    def point(self, simulator, model, params, label, x, cap):
        key = zlib.crc32(f"{self.figure_id}/{label}/{x:g}".encode())
        root = np.random.SeedSequence(
            entropy=self.entropy, spawn_key=(key,)
        )
        return run_sharded(
            simulator,
            model,
            params=params,
            replications=cap,
            chunk_size=self.chunk_size,
            jobs=self.mc_jobs,
            target_ci=self.target_ci,
            rng=root,
        )


def _sharded_requested(mc_jobs, target_ci, chunk_size) -> bool:
    return mc_jobs != 1 or target_ci is not None or chunk_size is not None


def fig11(
    p: float = DEFAULT_P,
    k: int = 7,
    h: int = 1,
    depths: list[int] | None = None,
    replications: int = 120,
    rng: np.random.Generator | int | None = 0,
    mc_jobs: int = 1,
    target_ci: float | None = None,
    chunk_size: int | None = None,
    codec: str = DEFAULT_CODEC,
) -> FigureResult:
    """Figure 11: layered FEC vs no FEC under independent and FBT shared loss.

    ``codec`` selects the erasure code driving per-receiver decodability
    (registry name; see :mod:`repro.fec.registry`).  The default ``rse``
    takes the legacy ideal-MDS path unchanged; other codecs clamp ``h``
    onto their supported lattice and simulate with honest (possibly
    non-MDS) recoverability.
    """
    sharded = _sharded_requested(mc_jobs, target_ci, chunk_size)
    if sharded:
        engine = _ShardedFigure("fig11", rng, mc_jobs, target_ci, chunk_size)
    else:
        rng = resolve_rng(rng)
    use_codec = codec != DEFAULT_CODEC
    h_eff = _effective_h(codec, k, h)
    layered_label = (
        f"layered FEC [{codec} {k}+{h_eff}] FBT loss"
        if use_codec
        else "layered FEC FBT loss"
    )
    depths = list(range(0, 18, 2)) if depths is None else depths
    sizes = [2**d for d in depths]
    xs = list(map(float, sizes))

    nofec_indep = [nofec.expected_transmissions(p, r) for r in sizes]
    layered_indep = [
        layered.expected_transmissions(k, k + h_eff, p, r) for r in sizes
    ]

    nofec_fbt, nofec_err, nofec_reps = [], [], []
    layered_fbt, layered_err, layered_reps = [], [], []
    for depth, size in zip(depths, sizes):
        reps = _scaled_reps(replications, size)
        model = FullBinaryTreeLoss(depth, p)
        if sharded:
            r_nofec = engine.point(
                "nofec", model, {}, "non-FEC FBT loss", size, reps
            )
            params = {"k": k, "h": h_eff}
            if use_codec:
                params["codec"] = codec
            r_layered = engine.point(
                "layered",
                model,
                params,
                layered_label,
                size,
                reps,
            )
        else:
            r_nofec = simulate_nofec(model, reps, rng=rng)
            r_layered = simulate_layered(
                model, k, h_eff, reps, rng=rng, codec=codec if use_codec else None
            )
        nofec_fbt.append(r_nofec.mean)
        nofec_err.append(r_nofec.stderr)
        nofec_reps.append(r_nofec.replications)
        layered_fbt.append(r_layered.mean)
        layered_err.append(r_layered.stderr)
        layered_reps.append(r_layered.replications)

    nofec_fbt_exact = [
        fbt.expected_transmissions_nofec(depth, p) for depth in depths
    ]
    notes = (
        "independent-loss and FBT-exact curves analytical; "
        "FBT loss curves simulated"
    )
    if use_codec:
        notes += (
            f"; codec = {codec} (requested h={h} -> effective h={h_eff}; "
            "indep. curve assumes ideal MDS at the effective geometry)"
        )
    return FigureResult(
        figure_id="fig11",
        title=f"Layered FEC, p = {p}, k = {k}, h = {h_eff}: "
        "independent vs FBT loss",
        x_label="R",
        y_label="transmissions E[M]",
        series=[
            Series("non-FEC indep. loss", xs, nofec_indep),
            Series("layered FEC indep. loss", xs, layered_indep),
            Series(
                "non-FEC FBT loss",
                xs,
                nofec_fbt,
                nofec_err,
                nofec_reps if sharded else None,
            ),
            Series(
                layered_label,
                xs,
                layered_fbt,
                layered_err,
                layered_reps if sharded else None,
            ),
            Series("non-FEC FBT exact", xs, nofec_fbt_exact),
        ],
        notes=notes,
    )


def fig12(
    p: float = DEFAULT_P,
    k: int = 7,
    depths: list[int] | None = None,
    replications: int = 120,
    rng: np.random.Generator | int | None = 0,
    mc_jobs: int = 1,
    target_ci: float | None = None,
    chunk_size: int | None = None,
) -> FigureResult:
    """Figure 12: integrated FEC vs no FEC, independent vs FBT shared loss."""
    sharded = _sharded_requested(mc_jobs, target_ci, chunk_size)
    if sharded:
        engine = _ShardedFigure("fig12", rng, mc_jobs, target_ci, chunk_size)
    else:
        rng = resolve_rng(rng)
    depths = list(range(0, 18, 2)) if depths is None else depths
    sizes = [2**d for d in depths]
    xs = list(map(float, sizes))

    nofec_indep = [nofec.expected_transmissions(p, r) for r in sizes]
    integrated_indep = [
        integrated.expected_transmissions_lower_bound(k, p, r) for r in sizes
    ]

    nofec_fbt, nofec_err, nofec_reps = [], [], []
    integ_fbt, integ_err, integ_reps = [], [], []
    for depth, size in zip(depths, sizes):
        reps = _scaled_reps(replications, size)
        model = FullBinaryTreeLoss(depth, p)
        if sharded:
            r_nofec = engine.point(
                "nofec", model, {}, "non-FEC FBT loss", size, reps
            )
            r_integ = engine.point(
                "integrated_immediate",
                model,
                {"k": k},
                "integrated FEC FBT loss",
                size,
                reps,
            )
        else:
            r_nofec = simulate_nofec(model, reps, rng=rng)
            r_integ = simulate_integrated_immediate(model, k, reps, rng=rng)
        nofec_fbt.append(r_nofec.mean)
        nofec_err.append(r_nofec.stderr)
        nofec_reps.append(r_nofec.replications)
        integ_fbt.append(r_integ.mean)
        integ_err.append(r_integ.stderr)
        integ_reps.append(r_integ.replications)

    nofec_fbt_exact = [
        fbt.expected_transmissions_nofec(depth, p) for depth in depths
    ]
    integ_fbt_exact = [
        fbt.expected_transmissions_integrated(depth, p, k) for depth in depths
    ]
    return FigureResult(
        figure_id="fig12",
        title=f"Integrated FEC, p = {p}, k = {k}: independent vs FBT loss",
        x_label="R",
        y_label="transmissions E[M]",
        series=[
            Series("non-FEC indep. loss", xs, nofec_indep),
            Series("integrated FEC indep. loss", xs, integrated_indep),
            Series(
                "non-FEC FBT loss",
                xs,
                nofec_fbt,
                nofec_err,
                nofec_reps if sharded else None,
            ),
            Series(
                "integrated FEC FBT loss",
                xs,
                integ_fbt,
                integ_err,
                integ_reps if sharded else None,
            ),
            Series("non-FEC FBT exact", xs, nofec_fbt_exact),
            Series("integrated FEC FBT exact", xs, integ_fbt_exact),
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


def _burst_model(n_receivers: int, p: float, mean_burst: float) -> GilbertLoss:
    return GilbertLoss.from_loss_and_burst(
        n_receivers, p, mean_burst, PAPER_TIMING.packet_interval
    )


def fig15(
    p: float = DEFAULT_P,
    mean_burst: float = 2.0,
    sizes: list[int] | None = None,
    replications: int = 150,
    rng: np.random.Generator | int | None = 0,
    mc_jobs: int = 1,
    target_ci: float | None = None,
    chunk_size: int | None = None,
    codec: str = DEFAULT_CODEC,
) -> FigureResult:
    """Figure 15: burst loss — layered FEC (7+1), (7+3) vs no FEC.

    ``codec`` selects the erasure code (registry name).  The default
    ``rse`` keeps the legacy (7+1)/(7+3) ideal-MDS pair; other codecs
    clamp each requested parity count onto their supported lattice and
    deduplicate geometries that coincide (e.g. ``xor`` collapses both to
    a single 7+1 series, ``rect`` to a single 7+6 series).
    """
    sharded = _sharded_requested(mc_jobs, target_ci, chunk_size)
    if sharded:
        engine = _ShardedFigure("fig15", rng, mc_jobs, target_ci, chunk_size)
    else:
        rng = resolve_rng(rng)
    use_codec = codec != DEFAULT_CODEC
    k = 7
    geometries: list[tuple[int, str]] = []
    for h_req in (1, 3):
        h_eff = _effective_h(codec, k, h_req)
        if any(h_eff == existing for existing, _ in geometries):
            continue
        label = (
            f"FEC layer {codec} ({k}+{h_eff})"
            if use_codec
            else f"FEC layer ({k}+{h_eff})"
        )
        geometries.append((h_eff, label))
    sizes = sizes or [1, 10, 100, 1000, 10000]
    xs = list(map(float, sizes))
    series = {"no FEC": ([], [], [])}
    for _, label in geometries:
        series[label] = ([], [], [])

    def record(label, result):
        series[label][0].append(result.mean)
        series[label][1].append(result.stderr)
        series[label][2].append(result.replications)

    for size in sizes:
        reps = _scaled_reps(replications, size)
        model = _burst_model(size, p, mean_burst)
        if sharded:
            record("no FEC", engine.point("nofec", model, {}, "no FEC", size, reps))
        else:
            record("no FEC", simulate_nofec(model, reps, rng=rng))
        for h, label in geometries:
            if sharded:
                params = {"k": k, "h": h}
                if use_codec:
                    params["codec"] = codec
                record(
                    label,
                    engine.point("layered", model, params, label, size, reps),
                )
            else:
                record(
                    label,
                    simulate_layered(
                        model,
                        k,
                        h,
                        reps,
                        rng=rng,
                        codec=codec if use_codec else None,
                    ),
                )
    title = f"Burst loss and FEC layer, p = {p}, b = {mean_burst:g}"
    if use_codec:
        title += f", codec = {codec}"
    return FigureResult(
        figure_id="fig15",
        title=title,
        x_label="R",
        y_label="transmissions E[M]",
        series=[
            Series(
                label, xs, values, errors, reps_used if sharded else None
            )
            for label, (values, errors, reps_used) in series.items()
        ],
    )


def fig16(
    p: float = DEFAULT_P,
    mean_burst: float = 2.0,
    sizes: list[int] | None = None,
    group_sizes: tuple[int, ...] = (7, 20, 100),
    replications: int = 150,
    rng: np.random.Generator | int | None = 0,
    mc_jobs: int = 1,
    target_ci: float | None = None,
    chunk_size: int | None = None,
) -> FigureResult:
    """Figure 16: burst loss — integrated FEC 1 vs FEC 2 for k = 7, 20, 100."""
    sharded = _sharded_requested(mc_jobs, target_ci, chunk_size)
    if sharded:
        engine = _ShardedFigure("fig16", rng, mc_jobs, target_ci, chunk_size)
    else:
        rng = resolve_rng(rng)
    sizes = sizes or [1, 10, 100, 1000, 10000]
    xs = list(map(float, sizes))
    result = FigureResult(
        figure_id="fig16",
        title=f"Burst loss and integrated FEC, p = {p}, b = {mean_burst:g}",
        x_label="R",
        y_label="transmissions E[M]",
    )
    nofec_values, nofec_errors, nofec_reps = [], [], []
    for size in sizes:
        reps = _scaled_reps(replications, size)
        model = _burst_model(size, p, mean_burst)
        if sharded:
            r = engine.point("nofec", model, {}, "no FEC", size, reps)
        else:
            r = simulate_nofec(model, reps, rng=rng)
        nofec_values.append(r.mean)
        nofec_errors.append(r.stderr)
        nofec_reps.append(r.replications)
    result.series.append(
        Series(
            "no FEC",
            xs,
            nofec_values,
            nofec_errors,
            nofec_reps if sharded else None,
        )
    )

    schemes = (
        (simulate_integrated_immediate, "integrated_immediate", "integrated FEC 1"),
        (simulate_integrated_rounds, "integrated_rounds", "integrated FEC 2"),
    )
    for k in group_sizes:
        for scheme, simulator, prefix in schemes:
            label = f"{prefix}, k={k}"
            values, errors, reps_used = [], [], []
            for size in sizes:
                reps = _scaled_reps(replications, size)
                model = _burst_model(size, p, mean_burst)
                if sharded:
                    r = engine.point(
                        simulator, model, {"k": k}, label, size, reps
                    )
                else:
                    r = scheme(model, k, reps, rng=rng)
                values.append(r.mean)
                errors.append(r.stderr)
                reps_used.append(r.replications)
            result.series.append(
                Series(
                    label,
                    xs,
                    values,
                    errors,
                    reps_used if sharded else None,
                )
            )
    return result


def _simulated_series(label: str, xs: list[float], points: list) -> Series:
    return Series(
        label,
        xs,
        [point.mean for point in points],
        [point.stderr for point in points],
        [point.replications for point in points],
    )


def ext_mc_1e6(
    p: float = DEFAULT_P,
    group_sizes: tuple[int, ...] = (7, 20, 100),
    sizes: tuple[int, ...] = (10**4, 10**5, 10**6),
    depth: int = 20,
    replications: int = 64,
    rng: np.random.Generator | int | None = 0,
) -> FigureResult:
    """The right-hand end of the paper's R axis, simulated.

    The paper draws every E[M] curve out to R = 10^6 but could only
    compute that end.  Loss-coordinate sampling makes a replication cost
    its losses, so here it is simulated: integrated FEC 2 under
    independent loss for each ``k`` against Equation 6 (Figures 5, 7, 8),
    and integrated FEC 1 on the height-``depth`` full binary tree
    (R = 2^20 = 1 048 576 by default) against the exact recursion of
    Section 4.1 (Figure 12).  Every point runs through the sharded engine
    on its own branch of the figure seed.
    """
    engine = _ShardedFigure("ext_mc_1e6", rng, 1, None, None)
    xs = list(map(float, sizes))
    series = []
    for k in group_sizes:
        label = f"integrated FEC 2, k={k}"
        points = [
            engine.point(
                "integrated_rounds",
                BernoulliLoss(size, p),
                {"k": k},
                label,
                size,
                replications,
            )
            for size in sizes
        ]
        series.append(_simulated_series(label, xs, points))
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
    tree_x = [float(2**depth)]
    label = f"integrated FEC 1 FBT loss, k={k}"
    point = engine.point(
        "integrated_immediate",
        FullBinaryTreeLoss(depth, p),
        {"k": k},
        label,
        tree_x[0],
        replications,
    )
    series.append(_simulated_series(label, tree_x, [point]))
    series.append(
        Series(
            f"FBT exact, k={k}",
            tree_x,
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
