"""Ablation experiments beyond the paper's figures.

Each runner returns a :class:`repro.experiments.series.FigureResult`, the
same contract as the figure runners, so the CLI and the benchmark suite
drive them identically.  The questions and headline results are catalogued
in EXPERIMENTS.md; the benchmark modules add the shape assertions.
"""

from __future__ import annotations

import os

import numpy as np

from repro import obs

from repro.analysis import integrated
from repro.analysis._series import max_survival
from repro.analysis.delay import (
    DelayParameters,
    fec1_delay,
    layered_delay,
    n2_delay,
    np_delay,
)
from repro.analysis.integrated import LrDistribution
from repro.experiments.figures_mc import FigurePoints, simulated_series
from repro.experiments.series import FigureResult, Series
from repro.fec.rse import RSECodec, max_block_length
from repro.galois.field import GF16, GF256, GF65536
from repro.protocols.harness import run_transfer
from repro.protocols.np_protocol import NPConfig
from repro.sim.loss import BernoulliLoss, BurstyTreeLoss, GilbertLoss

__all__ = [
    "abl_proactive",
    "abl_suppression",
    "abl_symbol_size",
    "abl_validation",
    "abl_adaptive",
    "abl_bursty_tree",
    "abl_latency",
]


def abl_proactive(
    k: int = 7, p: float = 0.01, n_receivers: int = 10_000,
    a_values: tuple[int, ...] = tuple(range(7)),
) -> FigureResult:
    """A1 — proactive parities: bandwidth vs feedback silence."""
    bandwidth = [
        integrated.expected_transmissions_lower_bound(k, p, n_receivers, a)
        for a in a_values
    ]
    no_round = [
        1.0 - max_survival(LrDistribution(k, p, a).survival(0), n_receivers)
        for a in a_values
    ]
    xs = [float(a) for a in a_values]
    return FigureResult(
        figure_id="abl_proactive",
        title=f"Proactive parities: bandwidth vs silence "
        f"(k={k}, p={p}, R={n_receivers})",
        x_label="a (proactive parities)",
        y_label="E[M] / P(no NAK round)",
        series=[
            Series("E[M]", xs, bandwidth),
            Series("P(no feedback round)", xs, no_round),
        ],
    )


def abl_suppression(
    slots: tuple[float, ...] = (0.005, 0.02, 0.08, 0.32),
    n_receivers: int = 60,
    p: float = 0.05,
    payload_bytes: int = 30_000,
    seed: int = 77,
) -> FigureResult:
    """A2 — NAK slot size Ts vs feedback volume and completion time."""
    from repro.analysis.feedback import expected_first_round_naks

    payload = bytes(range(256)) * (payload_bytes // 256)
    naks, suppression, completion, model = [], [], [], []
    n_groups = None
    for slot in slots:
        config = NPConfig(
            k=7, h=32, packet_size=512, packet_interval=0.01, slot_time=slot
        )
        report = run_transfer(
            "np", payload, BernoulliLoss(n_receivers, p), config, rng=seed
        )
        assert report.verified
        n_groups = report.n_groups
        naks.append(float(report.naks_sent_total))
        suppression.append(report.suppression_ratio)
        completion.append(report.completion_time)
        model.append(
            expected_first_round_naks(7, p, n_receivers, slot, 0.02)
            * report.n_groups
        )
    xs = [s * 1000 for s in slots]
    return FigureResult(
        figure_id="abl_suppression",
        title=f"NAK slot size vs feedback (NP, R={n_receivers}, p={p}, "
        f"{n_groups} groups)",
        x_label="slot Ts [ms]",
        y_label="NAKs sent / suppression ratio / completion [s]",
        series=[
            Series("NAKs sent", xs, naks),
            Series("model: round-1 NAKs x groups", xs, model),
            Series("suppression ratio", xs, suppression),
            Series("completion time [s]", xs, completion),
        ],
    )


def _encode_rate(field, k: int, h: int, packet_size: int = 1024,
                 min_duration: float = 0.05) -> float:
    codec = RSECodec(k, h, field=field)
    data = [os.urandom(packet_size) for _ in range(k)]
    blocks = 0
    # an obs span instead of bare perf_counter: the measured window lands
    # in the exported registry (span.duration_seconds) when telemetry is
    # on, and costs two timer reads when it is off
    with obs.span("ablation.encode_rate", m=field.m, k=k, h=h) as timer:
        while True:
            codec.encode(data)
            blocks += 1
            elapsed = timer.elapsed
            if elapsed >= min_duration:
                break
    rate = blocks * k / elapsed
    if obs.is_enabled():
        obs.gauge("ablation.encode_rate_pps", m=field.m, k=k, h=h).observe(rate)
    return rate


def abl_symbol_size(k: int = 7, h: int = 3) -> FigureResult:
    """A3 — Galois-field symbol width vs codec rate and block capacity."""
    fields = [GF16, GF256, GF65536]
    xs = [4.0, 8.0, 16.0]
    rates = [_encode_rate(field, k, h) for field in fields]
    limits = [float(max_block_length(field)) for field in fields]
    return FigureResult(
        figure_id="abl_symbol_size",
        title=f"Symbol width m vs encode rate (k={k}, h={h}, 1 KB packets)",
        x_label="m [bits]",
        y_label="data packets/s | max block length",
        series=[
            Series("encode rate", xs, rates),
            Series("max block length n", xs, limits),
        ],
    )


def abl_validation(
    k: int = 7, p: float = 0.05, n_receivers: int = 50,
    replications: int = 600, seed: int = 4242,
) -> FigureResult:
    """A4 — analysis vs Monte-Carlo vs the event-driven NP protocol."""
    from repro.analysis import layered, nofec

    engine = FigurePoints("abl_validation", seed)
    model = BernoulliLoss(n_receivers, p)

    analysis = [
        nofec.expected_transmissions(p, n_receivers),
        layered.expected_transmissions(k, k + 2, p, n_receivers),
        integrated.expected_transmissions_lower_bound(k, p, n_receivers),
    ]
    simulators = [
        ("nofec", {}),
        ("layered", {"k": k, "h": 2}),
        ("integrated_rounds", {"k": k}),
    ]
    xs = [0.0, 1.0, 2.0]
    monte_carlo = [
        engine.point(simulator, model, params, "monte carlo", x, replications)
        for x, (simulator, params) in zip(xs, simulators)
    ]
    payload = bytes(range(256)) * 120
    config = NPConfig(k=k, h=64, packet_size=512, packet_interval=0.005,
                      slot_time=0.01)
    protocol_em = float(np.mean([
        run_transfer("np", payload, BernoulliLoss(n_receivers, p), config,
                     rng=s).transmissions_per_packet
        for s in range(5)
    ]))
    return FigureResult(
        figure_id="abl_validation",
        title=f"Analysis vs simulation vs protocol (k={k}, p={p}, "
        f"R={n_receivers})",
        x_label="architecture (0=noFEC, 1=layered, 2=integrated)",
        y_label="E[M]",
        series=[
            Series("analysis", xs, analysis),
            simulated_series("monte carlo", xs, monte_carlo),
            Series("NP protocol", [2.0], [protocol_em]),
        ],
    )


def abl_adaptive(
    n_receivers: int = 120, p: float = 0.05,
    payload_bytes: int = 150_000, rng: int = 0,
) -> FigureResult:
    """A5 — adaptive proactive redundancy vs plain reactive NP, three
    transfers each (seeds ``rng .. rng + 2``)."""
    config = NPConfig(k=7, h=32, packet_size=512, packet_interval=0.01)
    payload = os.urandom(payload_bytes)
    reports = {"np": [], "np-adaptive": []}
    for protocol in reports:
        for transfer_seed in range(rng, rng + 3):
            report = run_transfer(
                protocol, payload, BernoulliLoss(n_receivers, p),
                config, rng=transfer_seed,
            )
            assert report.verified
            reports[protocol].append(report)
    xs = [0.0, 1.0]
    protocols = ["np", "np-adaptive"]

    def mean(attribute):
        return [
            float(np.mean([getattr(r, attribute) for r in reports[proto]]))
            for proto in protocols
        ]

    return FigureResult(
        figure_id="abl_adaptive",
        title=f"Adaptive proactivity vs reactive NP "
        f"(R={n_receivers}, p={p})",
        x_label="protocol (0=np, 1=np-adaptive)",
        y_label="metric value",
        series=[
            Series("E[M]", xs, mean("transmissions_per_packet")),
            Series("NAKs sent", xs, mean("naks_sent_total")),
            Series("repair rounds", xs, mean("naks_received")),
        ],
    )


def abl_bursty_tree(
    depths: tuple[int, ...] = (2, 6, 10), p: float = 0.01,
    mean_burst: float = 2.0, packet_interval: float = 0.040,
    replications: int = 150,
    rng: np.random.SeedSequence | np.random.Generator | int | None = 0,
) -> FigureResult:
    """A6 — combined spatial+temporal correlation (Gilbert chains at nodes)."""
    engine = FigurePoints("abl_bursty_tree", rng)
    trees = [
        BurstyTreeLoss(depth, p, mean_burst, packet_interval) for depth in depths
    ]
    flats = [
        GilbertLoss.from_loss_and_burst(2**depth, p, mean_burst, packet_interval)
        for depth in depths
    ]
    curves = [
        ("no FEC, bursty tree", "nofec", {}, trees),
        ("integrated k=7, bursty tree", "integrated_rounds", {"k": 7}, trees),
        ("integrated k=20, bursty tree", "integrated_rounds", {"k": 20}, trees),
        ("no FEC, independent bursts", "nofec", {}, flats),
        ("integrated k=7, independent bursts", "integrated_rounds", {"k": 7}, flats),
    ]
    return FigureResult(
        figure_id="abl_bursty_tree",
        title=f"Combined shared+burst loss (p={p}, b={mean_burst:g})",
        x_label="R",
        y_label="transmissions E[M]",
        series=[
            engine.curve(
                simulator, models, params, label, [replications] * len(models)
            )
            for label, simulator, params, models in curves
        ],
    )


def abl_latency(
    k: int = 7, p: float = 0.05, n_receivers: int = 40,
    replications: int = 25, rng: int = 0,
) -> FigureResult:
    """A7 — completion latency per scheme: models vs event-driven machines
    (transfer seeds ``rng .. rng + replications - 1``)."""
    timing = DelayParameters(packet_interval=0.01, latency=0.02,
                             slot_time=0.02)

    def simulate(protocol: str, h: int) -> float:
        config = NPConfig(k=k, h=h, packet_size=256, packet_interval=0.01,
                          slot_time=0.02)
        payload = os.urandom(k * 256)
        return float(np.mean([
            run_transfer(protocol, payload, BernoulliLoss(n_receivers, p),
                         config, rng=transfer_seed,
                         latency=timing.latency).completion_time
            for transfer_seed in range(rng, rng + replications)
        ]))

    xs = [0.0, 1.0, 2.0, 3.0]
    model = [
        fec1_delay(k, p, n_receivers, timing),
        np_delay(k, p, n_receivers, timing),
        layered_delay(k, 2, p, n_receivers, timing),
        n2_delay(k, p, n_receivers, timing),
    ]
    simulated = [
        simulate("fec1", 32),
        simulate("np", 32),
        simulate("layered", 2),
        simulate("n2", 32),
    ]
    return FigureResult(
        figure_id="abl_latency",
        title=f"Group completion latency (k={k}, p={p}, R={n_receivers})",
        x_label="scheme (0=fec1, 1=np, 2=layered, 3=n2)",
        y_label="seconds",
        series=[
            Series("model", xs, model),
            Series("simulated", xs, simulated),
        ],
    )
