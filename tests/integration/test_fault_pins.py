"""Pins of every fault-driven result that carries no per-datagram rates.

A window-only fault plan injects outages, per-receiver windows, feedback
blackouts, receiver crashes and sender stalls, but no per-datagram loss,
corruption, duplication, reordering or jitter.  Such plans decide nothing
at random, so however the fault layer is built, they must reproduce these
values bit for bit:

* the series of ``fail01`` (domain outages as a loss model) and of
  ``failure_em`` for the four availability worlds under NP and layered RM
  (churn as crashes and partitions);
* whole ``run_transfer`` reports of NP, layered RM and N2 under
  ``FaultPlan.random(..., intensity=0.0)``, the window-only plans of the
  chaos matrix.

The pins leave out only the plan object and the names of the injected-fault
counters; their sum is kept.  This module builds plans only through
``FaultPlan.random`` and the figure functions, so it runs unedited against
any fault-layer API that keeps those.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.figures_failure import fail01, failure_em
from repro.protocols.harness import run_transfer
from repro.protocols.np_protocol import NPConfig
from repro.resilience import FaultPlan, TransferError
from repro.sim.loss import BernoulliLoss

pytestmark = pytest.mark.timeout(300)

WORLDS = ("weibull", "piecewise", "gfs", "trace")
PROTOCOLS = ("np", "layered", "n2")
#: seeds 1-8 of FaultPlan.random at 5 receivers and a horizon of one sim
#: second (about one transfer) land every window kind inside the transfer:
#: plan-wide and per-receiver outages, feedback blackouts, crashes and
#: sender stalls
PLAN_SEEDS = tuple(range(1, 9))

N_RECEIVERS = 5
PAYLOAD = bytes(range(256)) * 24


def series_pin(result) -> tuple[str, ...]:
    """One ``label: y | errors`` line per series, floats as exact reprs,
    then the notes (NaN compares as text)."""
    lines = tuple(
        f"{series.label}: {' '.join(map(repr, series.y))} | "
        f"{' '.join(map(repr, series.errors or ()))}"
        for series in result.series
    )
    return (*lines, result.notes)


def _canonical(outcome) -> str:
    """A report or typed error as sorted JSON, minus plan and counter names."""
    if isinstance(outcome, TransferError):
        fields = {
            "error": type(outcome).__name__,
            "message": outcome.message,
            "report": dataclasses.asdict(outcome.report),
        }
        section, injected = fields["report"], "injected_faults"
    else:
        fields = dataclasses.asdict(outcome)
        section, injected = fields["resilience"], "injected"
    section.pop("fault_plan")
    section[injected] = sum(section[injected].values())
    return json.dumps(fields, sort_keys=True)


def outcome_pin(protocol: str, plan_seed: int) -> tuple:
    """(outcome, E[M], injected total, digest) of one window-only transfer."""
    plan = FaultPlan.random(
        plan_seed, N_RECEIVERS, horizon=1.0, intensity=0.0
    )
    config = NPConfig(
        k=4, h=4, packet_size=64, packet_interval=0.005, slot_time=0.02,
        nak_watchdog=0.3, watchdog_retry_limit=12, max_rounds=60,
    )
    try:
        outcome = run_transfer(
            protocol, PAYLOAD, BernoulliLoss(N_RECEIVERS, 0.05), config,
            rng=10_000 + plan_seed, fault_plan=plan, max_sim_time=400.0,
        )
        head = ("ok", repr(outcome.transmissions_per_packet))
        injected = sum(outcome.resilience.injected.values())
    except TransferError as error:
        outcome = error
        head = (type(error).__name__, None)
        injected = sum(error.report.injected_faults.values())
    digest = hashlib.sha256(_canonical(outcome).encode()).hexdigest()[:16]
    return (*head, injected, digest)


#: pinned at the parent of the single-vocabulary fault layer
FAIL01 = (
    "correlated (weibull domains): 1.4444444444444446 1.5538194444444446 "
    "1.7152777777777777 | 0.05745802166899961 0.05313842574240094 "
    "0.04834168057976181",
    "independent (matched mean): 1.5069444444444444 1.75 1.8211805555555556 | "
    "0.05101134460888663 0.048734961276452084 0.05319511682439381",
    "NP, k=4 h=8, base p=0.02, horizon=2s, 6 replications/point; equal mean "
    "marginal per replication, so the gap is the correlation structure",
)
FAILURE_EM = {
    ("weibull", "np"): (
        "np / weibull: 1.847222222222222 1.96875 | 0.06774541956787912 "
        "0.07233564811110993",
        "completion rate: 1.0 1.0 | ",
        "0/6 transfers degraded, 0/6 died outright, 588 receiver crashes "
        "survived",
    ),
    ("weibull", "layered"): (
        "layered / weibull: nan nan | nan nan",
        "completion rate: 0.0 0.0 | ",
        "0/6 transfers degraded, 6/6 died outright, 0 receiver crashes "
        "survived",
    ),
    ("piecewise", "np"): (
        "np / piecewise: 1.5868055555555556 1.8020833333333333 | "
        "0.07452481496298725 0.022502571869471737",
        "completion rate: 1.0 1.0 | ",
        "0/6 transfers degraded, 0/6 died outright, 173 receiver crashes "
        "survived",
    ),
    ("piecewise", "layered"): (
        "layered / piecewise: nan nan | nan nan",
        "completion rate: 0.0 0.0 | ",
        "0/6 transfers degraded, 6/6 died outright, 0 receiver crashes "
        "survived",
    ),
    ("gfs", "np"): (
        "np / gfs: 1.5659722222222223 1.5694444444444444 | "
        "0.06880492568380488 0.054311889845602125",
        "completion rate: 1.0 1.0 | ",
        "0/6 transfers degraded, 0/6 died outright, 66 receiver crashes "
        "survived",
    ),
    ("gfs", "layered"): (
        "layered / gfs: 3.0034722222222228 2.96875 | 0.03269547891626283 0.0",
        "completion rate: 1.0 1.0 | ",
        "0/6 transfers degraded, 0/6 died outright, 0 receiver crashes "
        "survived",
    ),
    ("trace", "np"): (
        "np / trace: 1.0763888888888886 1.1493055555555556 | "
        "0.010221945447138727 0.0028350575726657353",
        "completion rate: 1.0 1.0 | ",
        "0/6 transfers degraded, 0/6 died outright, 0 receiver crashes "
        "survived",
    ),
    ("trace", "layered"): (
        "layered / trace: 2.961805555555556 2.96875 | 0.0028350575726656755 "
        "0.0",
        "completion rate: 1.0 1.0 | ",
        "0/6 transfers degraded, 0/6 died outright, 0 receiver crashes "
        "survived",
    ),
}
TRANSFERS = {
    ("np", 1): ("TransferStalled", None, 298, "49e06d64ba266d67"),
    ("np", 2): ("ok", "1.25", 31, "fbbe8a47c4c83da3"),
    ("np", 3): ("TransferStalled", None, 170, "647ef86c8d19fb26"),
    ("np", 4): ("ok", "1.8645833333333333", 382, "161d829600793a80"),
    ("np", 5): ("ok", "1.6979166666666667", 80, "dcd2d14ef378fcf0"),
    ("np", 6): ("ok", "1.1666666666666667", 0, "f9d0c2c34f7d3fa5"),
    ("np", 7): ("TransferStalled", None, 57, "0ec2cf5400fa356a"),
    ("np", 8): ("ok", "1.3333333333333333", 21, "4b1b16c4baa544e4"),
    ("layered", 1): ("TransferStalled", None, 241, "0bb3686c7e09101f"),
    ("layered", 2): ("TransferStalled", None, 63, "7207fe9b89748518"),
    ("layered", 3): ("TransferStalled", None, 129, "b23942d5649b4b95"),
    ("layered", 4): ("TransferStalled", None, 348, "209588001bb36070"),
    ("layered", 5): ("TransferStalled", None, 58, "acc1e10ab8052ddd"),
    ("layered", 6): ("TransferStalled", None, 12, "8340b3fb7a30be7f"),
    ("layered", 7): ("TransferStalled", None, 89, "86632a7968972ed6"),
    ("layered", 8): ("TransferTimeout", None, 91, "0906e26d1c414a54"),
    ("n2", 1): ("TransferStalled", None, 303, "e1132a6ac386bad9"),
    ("n2", 2): ("TransferStalled", None, 21, "9ab17afc12379f30"),
    ("n2", 3): ("TransferStalled", None, 173, "9cdd3fb2235bb4e2"),
    ("n2", 4): ("TransferStalled", None, 338, "ef671e318f719777"),
    ("n2", 5): ("TransferStalled", None, 76, "af1cd9627b92efc1"),
    ("n2", 6): ("TransferStalled", None, 2, "83d6ee0ed364079d"),
    ("n2", 7): ("TransferStalled", None, 62, "84749ce36eefab9c"),
    ("n2", 8): ("TransferStalled", None, 27, "839617e96f0b62ca"),
}


def test_fail01_series_pinned():
    assert series_pin(fail01(seed=0)) == FAIL01


@pytest.mark.parametrize("world", WORLDS)
@pytest.mark.parametrize("protocol", ("np", "layered"))
def test_failure_em_series_pinned(world, protocol):
    result = failure_em(world, protocol, seed=0)
    assert series_pin(result) == FAILURE_EM[world, protocol]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("plan_seed", PLAN_SEEDS)
def test_window_only_transfer_pinned(protocol, plan_seed):
    assert outcome_pin(protocol, plan_seed) == TRANSFERS[protocol, plan_seed]
