"""Registry of every reproduced figure: id -> runner + provenance.

``python -m repro.experiments`` (see ``__main__.py``) and the benchmark
suite both drive figures through this table, so adding an experiment in one
place wires it up everywhere.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.experiments import (
    ablations,
    figures_analysis,
    figures_codec,
    figures_failure,
    figures_mc,
)
from repro.experiments.series import FigureResult

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "accepted_kwargs",
    "run_experiment",
    "experiment_ids",
]


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper figure."""

    figure_id: str
    paper_caption: str
    method: str  # "analysis" | "simulation" | "measurement"
    runner: Callable[..., FigureResult]
    expected_shape: str  # prose description of the claim being reproduced


EXPERIMENTS: dict[str, Experiment] = {
    exp.figure_id: exp
    for exp in [
        Experiment(
            "fig01",
            "Coding and decoding rates vs redundancy h/k and TG size k",
            "measurement",
            figures_codec.fig01,
            "rate falls roughly as 1/(h*k); k=7 fastest, k=100 slowest",
        ),
        Experiment(
            "fig03",
            "Non-FEC versus layered FEC with h=2 for k=7,20,100, p=0.01",
            "analysis",
            figures_analysis.fig03,
            "layered beats no-FEC at large R; k=100 with only h=2 is worst",
        ),
        Experiment(
            "fig04",
            "Non-FEC versus layered FEC with h=7 for k=7,20,100, p=0.01",
            "analysis",
            figures_analysis.fig04,
            "k=100 with h=7 best for R in 1..2e5",
        ),
        Experiment(
            "fig05",
            "E[M] vs R for TG size 7: layered vs integrated FEC",
            "analysis",
            figures_analysis.fig05,
            "integrated << layered << no-FEC at all R",
        ),
        Experiment(
            "fig06",
            "Integrated FEC, k=7, for h=1,2,3,inf",
            "analysis",
            figures_analysis.fig06,
            "3 parities reach the lower bound up to ~1e5 receivers",
        ),
        Experiment(
            "fig07",
            "Influence of R on integrated FEC for k=7,20,100",
            "analysis",
            figures_analysis.fig07,
            "larger k drives E[M] toward 1 even at R=1e6",
        ),
        Experiment(
            "fig08",
            "Influence of p on integrated FEC for k=7,20,100 (R=1000)",
            "analysis",
            figures_analysis.fig08,
            "integrated FEC insensitive to p for large k",
        ),
        Experiment(
            "fig09",
            "Heterogeneous receivers without FEC",
            "analysis",
            figures_analysis.fig09,
            "1% high-loss receivers double E[M] at R=1e6",
        ),
        Experiment(
            "fig10",
            "Heterogeneous receivers with integrated FEC (k=7)",
            "analysis",
            figures_analysis.fig10,
            "same high-loss domination, lower absolute E[M]",
        ),
        Experiment(
            "fig11",
            "Layered FEC vs non-FEC, independent vs FBT shared loss",
            "simulation",
            figures_mc.fig11,
            "shared loss lowers E[M]; layered pays off only for R>~60 on FBT",
        ),
        Experiment(
            "fig12",
            "Integrated FEC vs non-FEC, independent vs FBT shared loss",
            "simulation",
            figures_mc.fig12,
            "integrated still wins under shared loss, by a smaller margin",
        ),
        Experiment(
            "fig14",
            "Burst-length distribution, no-burst vs b=2 (p=0.01)",
            "simulation",
            figures_mc.fig14,
            "both tails geometric; burst channel much heavier",
        ),
        Experiment(
            "fig15",
            "Burst loss: layered FEC (7+1), (7+3) vs no FEC",
            "simulation",
            figures_mc.fig15,
            "layered FEC WORSE than no FEC under burst loss",
        ),
        Experiment(
            "fig16",
            "Burst loss: integrated FEC 1 vs 2 for k=7,20,100",
            "simulation",
            figures_mc.fig16,
            "large k restores performance; FEC2 beats FEC1 only at k=7",
        ),
        Experiment(
            "fig17",
            "Processing rates at sender and receiver, N2 vs NP (k=20)",
            "analysis",
            figures_analysis.fig17,
            "NP receiver high and flat; NP sender encoding-bound",
        ),
        Experiment(
            "fig18",
            "Throughput of N2 vs NP with and without pre-encoding",
            "analysis",
            figures_analysis.fig18,
            "NP pre-encode up to ~3x N2 at large R",
        ),
        # ------- ablations beyond the paper (method = "extension") -------
        Experiment(
            "abl_proactive",
            "Proactive parities a>0: bandwidth vs feedback silence",
            "extension",
            ablations.abl_proactive,
            "silence improves monotonically in a; bandwidth floor (k+a)/k",
        ),
        Experiment(
            "abl_suppression",
            "NAK suppression slot size Ts vs feedback volume",
            "extension",
            ablations.abl_suppression,
            "wider slots damp more NAKs at completion-time cost",
        ),
        Experiment(
            "abl_symbol_size",
            "GF symbol width m vs codec rate and block capacity",
            "extension",
            ablations.abl_symbol_size,
            "m=8 is the sweet spot: table-fast and n<=255",
        ),
        Experiment(
            "abl_validation",
            "Three-way E[M] validation: analysis vs MC vs protocol NP",
            "extension",
            ablations.abl_validation,
            "MC within ~3% of closed forms; NP within ~15% of the bound",
        ),
        Experiment(
            "abl_adaptive",
            "Adaptive proactive redundancy vs reactive NP",
            "extension",
            ablations.abl_adaptive,
            "most NAK traffic removed for a bounded bandwidth premium",
        ),
        Experiment(
            "abl_bursty_tree",
            "Combined shared+burst loss (Gilbert chains at tree nodes)",
            "extension",
            ablations.abl_bursty_tree,
            "the paper's conclusions survive combined correlation",
        ),
        Experiment(
            "abl_latency",
            "Completion latency per scheme: delay models vs simulation",
            "extension",
            ablations.abl_latency,
            "FEC1 is the latency floor; N2 model is a strict lower bound",
        ),
        Experiment(
            "ext_mc_1e6",
            "Integrated FEC simulated at R = 10^4..10^6 (independent, FBT)",
            "extension",
            figures_mc.ext_mc_1e6,
            "every simulated point inside twice its 95% CI of the closed "
            "form the paper could only compute",
        ),
        Experiment(
            "fail01",
            "Correlated domain outages vs independent loss of equal mean",
            "extension",
            figures_failure.fail01,
            "correlated E[M] below the rate-matched independent curve: "
            "domain-scoped losses share repairs",
        ),
    ]
}


def experiment_ids() -> list[str]:
    """Sorted ids of every registered experiment (figures + ablations)."""
    return sorted(EXPERIMENTS)


def accepted_kwargs(runner: Callable, kwargs: dict) -> dict:
    """The subset of ``kwargs`` that ``runner`` accepts by signature.

    One CLI flag (``--seed``, ``--mc-jobs``, ...) can then apply across a
    mixed run of analytic and simulated figures.
    """
    params = inspect.signature(runner).parameters
    return {key: value for key, value in kwargs.items() if key in params}


def run_experiment(figure_id: str, **kwargs) -> FigureResult:
    """Run one experiment by id, forwarding runner-specific kwargs.

    Each run is wrapped in an obs span (``figure.<id>``), so with
    telemetry enabled figure wall-times land in the exported registry.
    """
    try:
        experiment = EXPERIMENTS[figure_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {figure_id!r}; known: {experiment_ids()}"
        ) from None
    with obs.span(f"figure.{figure_id}", method=experiment.method):
        return experiment.runner(**kwargs)
