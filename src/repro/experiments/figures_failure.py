"""Correlated-failure experiments: domain outages vs independent loss.

The paper's loss models treat receivers as independent (or correlated
only through the shared backbone link); real deployments fail in
*domains* — a rack switch reboot takes out every machine under it at
once.  :mod:`repro.sim.failure` supplies the seeded availability worlds
and the site/rack/machine tree; this module asks what that correlation
costs the NP protocol:

* :func:`fail01` — the headline figure: E[M] under
  :class:`~repro.sim.failure.DomainOutageLoss` versus an independent
  :class:`~repro.sim.loss.BernoulliLoss` matched to the *same mean
  marginal loss rate*, so any gap is attributable to the correlation
  structure alone, not to the loss volume.
* :func:`failure_em` — E[M] under one (generator, protocol) pair;
  looping it over the four worlds and both churned protocols sweeps the
  whole correlated-failure matrix.  Churned transfers are driven by
  :func:`~repro.sim.failure.churn_fault_plan`, reporting E[M] and the
  degraded-completion count.

Both keep the availability worlds on simulator timescale: the canned
generators are parameterised in "minutes" while a small transfer lasts
about a second of sim time, so every duration is shrunk by
:data:`SIM_TIME_SCALE` to land a handful of outages inside a transfer.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.series import FigureResult, Series
from repro.protocols.harness import TransferReport, run_transfer
from repro.protocols.np_protocol import NPConfig
from repro.resilience.errors import TransferError
from repro.sim.failure import (
    DomainOutageLoss,
    DomainTree,
    churn_fault_plan,
    named_generator,
)
from repro.sim.loss import BernoulliLoss

__all__ = ["SIM_TIME_SCALE", "fail01", "failure_em", "failure_transfers"]

#: shrink factor from the canned generators' "minutes" to sim seconds
SIM_TIME_SCALE = 0.05


def _sim_config() -> NPConfig:
    """Small-transfer protocol config shared by every failure experiment.

    Short packet interval and watchdog so an outage of a few hundredths
    of a sim-second spans several packets but stays recoverable within
    the retry budget; ``eject`` degradation keeps a doomed receiver from
    stalling the whole cell.
    """
    return NPConfig(
        k=4,
        h=8,
        packet_size=64,
        packet_interval=0.005,
        slot_time=0.02,
        nak_watchdog=0.3,
        watchdog_retry_limit=12,
        max_rounds=60,
    )


def _payload(seed: int, n_groups: int = 24, k: int = 4, size: int = 64) -> bytes:
    return np.random.default_rng(seed).bytes(n_groups * k * size)


def failure_transfers(
    failure: str = "weibull",
    protocol: str = "np",
    n_receivers: int = 8,
    replications: int = 4,
    seed: int = 0,
    p: float = 0.02,
    horizon: float = 8.0,
) -> list[TransferReport | None]:
    """``replications`` churned transfers of one (generator, protocol) cell.

    Each replication derives its own availability world from the base
    seed, realises it as a :func:`~repro.sim.failure.churn_fault_plan`
    over a (2, 2) site/rack tree, and runs one small transfer under
    independent link loss plus the plan.  The NP protocol gets
    ``mode="crash"`` (it has crash/rejoin hooks); the others get
    ``mode="outage"`` (partition only, state kept).

    A replication whose transfer dies outright (stall/timeout under a
    brutal schedule — layered RM has no NAK watchdog, so a partition
    spanning a poll round is unrecoverable) yields ``None`` instead of a
    report: in a failure sweep that outcome is data, not an error.
    """
    tree = DomainTree(n_receivers, branching=(2, 2))
    mode = "crash" if protocol == "np" else "outage"
    config = _sim_config()
    reports = []
    for i in range(replications):
        generator = named_generator(
            failure,
            seed=seed * 1009 + i,
            horizon=horizon,
            time_scale=SIM_TIME_SCALE,
        )
        plan = churn_fault_plan(tree, generator, mode=mode)
        try:
            reports.append(
                run_transfer(
                    protocol,
                    _payload(seed * 1013 + i),
                    BernoulliLoss(n_receivers, p),
                    config=config,
                    rng=seed * 1019 + i,
                    fault_plan=plan,
                    domains=tree,
                )
            )
        except TransferError:
            reports.append(None)
    return reports


def failure_em(
    failure: str = "weibull",
    protocol: str = "np",
    receivers: tuple[int, ...] = (4, 8),
    replications: int = 3,
    seed: int = 0,
) -> FigureResult:
    """One ``failure_em`` sweep cell: E[M] vs R under one churn world."""
    values, errors, completion = [], [], []
    degraded = crashes = failed = 0
    for receiver_count in receivers:
        reports = failure_transfers(
            failure,
            protocol,
            n_receivers=receiver_count,
            replications=replications,
            seed=seed,
        )
        completed = [r for r in reports if r is not None]
        failed += len(reports) - len(completed)
        completion.append(len(completed) / len(reports))
        ems = [report.transmissions_per_packet for report in completed]
        values.append(float(np.mean(ems)) if ems else float("nan"))
        errors.append(
            float(np.std(ems) / np.sqrt(len(ems))) if ems else float("nan")
        )
        degraded += sum(1 for r in completed if r.resilience.degraded)
        crashes += sum(r.resilience.crashes for r in completed)
    total = len(receivers) * replications
    return FigureResult(
        figure_id=f"failure_em_{failure}_{protocol}",
        title=f"E[M] under {failure} churn, protocol={protocol}",
        x_label="R",
        y_label="E[M]",
        series=[
            Series(
                f"{protocol} / {failure}",
                list(map(float, receivers)),
                values,
                errors,
            ),
            # an all-stalled point has no E[M] (NaN) but still carries
            # data: the completion rate is the robustness headline for
            # watchdog-free protocols under partitions
            Series(
                "completion rate",
                list(map(float, receivers)),
                completion,
            ),
        ],
        notes=(
            f"{degraded}/{total} transfers degraded, {failed}/{total} died "
            f"outright, {crashes} receiver crashes survived"
        ),
    )


def fail01(
    failure: str = "weibull",
    receivers: tuple[int, ...] = (4, 8, 16),
    replications: int = 6,
    seed: int = 0,
    p: float = 0.02,
    horizon: float = 2.0,
) -> FigureResult:
    """F1 — correlated domain outages vs independent loss of equal mean.

    The correlated series runs NP transfers under
    :class:`~repro.sim.failure.DomainOutageLoss` (link loss OR
    any-ancestor-down on a (2, 2) domain tree, availability world
    ``failure``); the independent series re-runs each replication with a
    Bernoulli model whose rate equals that replication's mean correlated
    marginal.  The horizon is kept close to the transfer duration so the
    matched rate reflects the loss actually seen in flight.
    """
    config = _sim_config()
    cor_y, cor_err, ind_y, ind_err = [], [], [], []
    for receiver_count in receivers:
        tree = DomainTree(receiver_count, branching=(2, 2))
        cor, ind = [], []
        for i in range(replications):
            generator = named_generator(
                failure,
                seed=seed * 1009 + i,
                horizon=horizon,
                time_scale=SIM_TIME_SCALE,
            )
            model = DomainOutageLoss(
                BernoulliLoss(receiver_count, p), tree, generator
            )
            matched = BernoulliLoss(
                receiver_count,
                float(np.mean(model.marginal_loss_probability())),
            )
            data = _payload(seed * 1013 + i)
            cor.append(
                run_transfer(
                    "np", data, model, config=config, rng=seed * 1019 + i
                ).transmissions_per_packet
            )
            ind.append(
                run_transfer(
                    "np", data, matched, config=config, rng=seed * 1019 + i
                ).transmissions_per_packet
            )
        cor_y.append(float(np.mean(cor)))
        cor_err.append(float(np.std(cor) / np.sqrt(len(cor))))
        ind_y.append(float(np.mean(ind)))
        ind_err.append(float(np.std(ind) / np.sqrt(len(ind))))
    xs = list(map(float, receivers))
    return FigureResult(
        figure_id="fail01",
        title=f"Correlated ({failure}) vs independent loss of equal mean",
        x_label="R",
        y_label="E[M]",
        series=[
            Series(f"correlated ({failure} domains)", xs, cor_y, cor_err),
            Series("independent (matched mean)", xs, ind_y, ind_err),
        ],
        notes=(
            f"NP, k=4 h=8, base p={p:g}, horizon={horizon:g}s, "
            f"{replications} replications/point; equal mean marginal per "
            f"replication, so the gap is the correlation structure"
        ),
    )
