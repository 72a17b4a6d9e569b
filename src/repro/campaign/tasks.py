"""Declarative campaign tasks: what to run, picklable across processes.

A :class:`CampaignTask` is pure data — an id, a kind, a spec dict, a seed
and an optional per-task timeout — so it survives the JSONL journal and
the spawn boundary unchanged.  Execution (:func:`execute_task`) resolves
the spec *inside the worker process*:

* ``"experiment"`` tasks name a figure/ablation id in
  :data:`repro.experiments.registry.EXPERIMENTS`; the task seed is
  forwarded as ``rng=`` when the runner accepts one, so simulation figures
  are reproducible cells.
* ``"callable"`` tasks name any module-level function by ``"pkg.mod:func"``
  dotted path plus kwargs — the escape hatch for sweep cells, ad-hoc
  studies and the crash-consistency test fixtures.  The task seed is
  forwarded as ``seed=`` when the function accepts one.

Sweep campaigns are expanded up front: :func:`sweep_grid_tasks` turns a
named grid (one task per parameter cell) into independent tasks, which is
exactly the shape the supervisor wants — cells fail, retry and resume
individually instead of losing a whole grid to one bad point.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = [
    "CampaignTask",
    "experiment_task",
    "callable_task",
    "tasks_from_registry",
    "sweep_grid_tasks",
    "SWEEP_GRIDS",
    "em_bound_cell",
    "failure_em_cell",
    "execute_task",
    "serialize_result",
    "deserialize_result",
]

_KINDS = ("experiment", "callable")


@dataclass(frozen=True)
class CampaignTask:
    """One unit of supervised work: a figure, an ablation or a sweep cell."""

    task_id: str
    kind: str
    spec: dict = field(default_factory=dict)
    #: forwarded to the runner as ``rng=seed`` when it accepts one; part of
    #: the journal record so a resumed cell re-runs bit-identically
    seed: int | None = None
    #: per-task wall-clock override (None -> the campaign default)
    timeout: float | None = None

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown task kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                f"task timeout must be positive, got {self.timeout}"
            )

    def to_json(self) -> dict:
        return {
            "task_id": self.task_id,
            "kind": self.kind,
            "spec": dict(self.spec),
            "seed": self.seed,
            "timeout": self.timeout,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CampaignTask":
        seed = data.get("seed")
        timeout = data.get("timeout")
        return cls(
            task_id=data["task_id"],
            kind=data["kind"],
            spec=dict(data.get("spec", {})),
            seed=None if seed is None else int(seed),
            timeout=None if timeout is None else float(timeout),
        )


def experiment_task(
    figure_id: str,
    seed: int | None = None,
    timeout: float | None = None,
    **kwargs: Any,
) -> CampaignTask:
    """A task running one registered experiment (validated eagerly)."""
    from repro.experiments.registry import EXPERIMENTS, experiment_ids

    if figure_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {figure_id!r}; known: {experiment_ids()}"
        )
    return CampaignTask(
        task_id=figure_id,
        kind="experiment",
        spec={"experiment_id": figure_id, "kwargs": kwargs},
        seed=seed,
        timeout=timeout,
    )


def callable_task(
    task_id: str,
    target: str,
    seed: int | None = None,
    timeout: float | None = None,
    **kwargs: Any,
) -> CampaignTask:
    """A task calling ``target`` (``"pkg.mod:func"``) with ``kwargs``."""
    if ":" not in target:
        raise ValueError(
            f"target must be 'module:function', got {target!r}"
        )
    return CampaignTask(
        task_id=task_id,
        kind="callable",
        spec={"target": target, "kwargs": kwargs},
        seed=seed,
        timeout=timeout,
    )


def tasks_from_registry(
    figure_ids: Iterable[str] | None = None, seed: int = 0, **kwargs: Any
) -> list[CampaignTask]:
    """One task per registered experiment (all of them by default).

    Extra ``kwargs`` (e.g. the sharded-MC knobs ``mc_jobs`` / ``target_ci``)
    are forwarded to each runner that accepts them by signature and
    silently dropped for the rest, so one flag can apply across a mixed
    campaign of analytic and simulated figures.
    """
    from repro.experiments.registry import (
        EXPERIMENTS,
        accepted_kwargs,
        experiment_ids,
    )

    ids = experiment_ids() if figure_ids is None else list(figure_ids)
    tasks = []
    for figure_id in ids:
        experiment = EXPERIMENTS.get(figure_id)
        # unknown ids flow through to experiment_task's canonical error
        accepted = (
            {} if experiment is None else accepted_kwargs(experiment.runner, kwargs)
        )
        tasks.append(experiment_task(figure_id, seed=seed, **accepted))
    return tasks


# ----------------------------------------------------------------------
# sweep grids: named parameter grids expanded one-task-per-cell
# ----------------------------------------------------------------------
def em_bound_cell(
    k: int,
    p: float,
    receivers: Sequence[int] = (1, 10, 100, 1000, 10**4, 10**5, 10**6),
) -> "Any":
    """One ``(k, p)`` cell of the integrated-FEC lower-bound sweep."""
    from repro.analysis import integrated
    from repro.experiments.sweep import sweep

    return sweep(
        lambda R: integrated.expected_transmissions_lower_bound(k, p, R),
        x=("R", list(receivers)),
        figure_id=f"em_bound_k{k}_p{p:g}",
        title=f"integrated-FEC lower bound, k={k}, p={p:g}",
        y_label="E[M]",
    )


def codec_em_cell(
    codec: str,
    k: int = 7,
    h: int = 3,
    p: float = 0.01,
    receivers: Sequence[int] = (1, 10, 100, 1000),
    replications: int = 60,
    seed: int = 0,
) -> "Any":
    """One codec cell of the per-scheme layered E[M] sweep.

    ``h`` is the *requested* parity count; each codec clamps it onto its
    supported lattice via :meth:`~repro.fec.code.ErasureCode.nearest_h`
    (``xor`` -> 1, ``rect`` -> rows + cols, ...), so one grid definition
    covers codes with incompatible geometry constraints.
    """
    from repro.experiments.figures_mc import FigurePoints
    from repro.experiments.series import FigureResult
    from repro.fec.registry import get_codec
    from repro.sim.loss import BernoulliLoss

    h_eff = get_codec(codec).nearest_h(k, h)
    figure_id = f"codec_em_{codec}"
    return FigureResult(
        figure_id=figure_id,
        title=f"layered E[M], codec={codec} ({k}+{h_eff}), p={p:g}",
        x_label="R",
        y_label="E[M]",
        series=[
            FigurePoints(figure_id, seed).curve(
                "layered",
                [BernoulliLoss(receiver_count, p) for receiver_count in receivers],
                {"k": k, "h": h_eff, "codec": codec},
                f"{codec} ({k}+{h_eff})",
                [replications] * len(receivers),
            )
        ],
        notes=f"requested h={h}, effective h={h_eff}",
    )


def failure_em_cell(
    failure: str = "weibull",
    protocol: str = "np",
    receivers: tuple[int, ...] = (4, 8),
    replications: int = 3,
    seed: int = 0,
):
    """One cell of the ``failure_em`` sweep: E[M] under one churn world.

    Thin campaign wrapper over
    :func:`repro.experiments.figures_failure.failure_em` (imported
    lazily, like every cell, so workers pay only for what they run).
    """
    from repro.experiments.figures_failure import failure_em

    return failure_em(
        failure=failure,
        protocol=protocol,
        receivers=receivers,
        replications=replications,
        seed=seed,
    )


#: grid name -> list of (cell task id suffix, target, kwargs)
SWEEP_GRIDS: dict[str, list[tuple[str, str, dict]]] = {
    "em_bound": [
        (
            f"k{k}_p{p:g}",
            "repro.campaign.tasks:em_bound_cell",
            {"k": k, "p": p},
        )
        for k in (7, 20, 100)
        for p in (0.001, 0.01, 0.05)
    ],
    # one cell per registered erasure code, same requested geometry: the
    # clamped effective h and the honest decodability both come from the
    # codec itself, so new registrations extend this grid by name alone
    "codec_em": [
        (
            codec,
            "repro.campaign.tasks:codec_em_cell",
            {"codec": codec, "k": 7, "h": 3},
        )
        for codec in ("rse", "xor", "rect", "lrc")
    ],
    # every availability world crossed with both churned protocols: one
    # resumable campaign sweeps the whole correlated-failure matrix
    "failure_em": [
        (
            f"{failure}_{protocol}",
            "repro.campaign.tasks:failure_em_cell",
            {"failure": failure, "protocol": protocol},
        )
        for failure in ("weibull", "piecewise", "gfs", "trace")
        for protocol in ("np", "layered")
    ],
}


def sweep_grid_tasks(
    grid: str = "em_bound", seed: int = 0
) -> list[CampaignTask]:
    """Expand a named sweep grid into one campaign task per cell."""
    try:
        cells = SWEEP_GRIDS[grid]
    except KeyError:
        raise KeyError(
            f"unknown sweep grid {grid!r}; known: {sorted(SWEEP_GRIDS)}"
        ) from None
    return [
        callable_task(f"sweep_{grid}_{suffix}", target, seed=seed, **kwargs)
        for suffix, target, kwargs in cells
    ]


# ----------------------------------------------------------------------
# execution + result payloads (runs inside the worker process)
# ----------------------------------------------------------------------
def _resolve_target(path: str) -> Any:
    module_name, _, attribute = path.partition(":")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attribute)
    except AttributeError:
        raise ImportError(
            f"{module_name!r} has no attribute {attribute!r}"
        ) from None


def execute_task(task: CampaignTask) -> Any:
    """Run one task to completion and return its raw result object."""
    if task.kind == "experiment":
        from repro.experiments.registry import EXPERIMENTS, run_experiment

        experiment = EXPERIMENTS[task.spec["experiment_id"]]
        kwargs = dict(task.spec.get("kwargs", {}))
        if (
            task.seed is not None
            and "rng" in inspect.signature(experiment.runner).parameters
        ):
            kwargs.setdefault("rng", task.seed)
        # through run_experiment, not the bare runner: a campaign worker
        # then emits the same figure.<id> span a sequential run would
        return run_experiment(task.spec["experiment_id"], **kwargs)
    fn = _resolve_target(task.spec["target"])
    kwargs = dict(task.spec.get("kwargs", {}))
    if (
        task.seed is not None
        and "seed" in inspect.signature(fn).parameters
    ):
        kwargs.setdefault("seed", task.seed)
    return fn(**kwargs)


def serialize_result(result: Any) -> dict:
    """Journal-ready payload for a task result.

    Figures and transfer reports serialize losslessly (tagged, so
    :func:`deserialize_result` restores the original object); anything
    else JSON-serializable is stored verbatim; the rest degrade to their
    ``repr``.
    """
    from repro.experiments.series import FigureResult
    from repro.protocols.harness import TransferReport

    if isinstance(result, FigureResult):
        return {"type": "figure", "data": result.to_json()}
    if isinstance(result, TransferReport):
        return {"type": "transfer_report", "data": result.to_json()}
    try:
        import json

        # sort_keys matches the journal's canonical encoding: a payload
        # that cannot sort (e.g. mixed-type dict keys) must degrade here,
        # in the worker, not crash the supervisor's digest/journal write
        json.dumps(result, sort_keys=True)
    except (TypeError, ValueError):
        return {"type": "repr", "data": repr(result)}
    return {"type": "json", "data": result}


def deserialize_result(payload: dict) -> Any:
    """Inverse of :func:`serialize_result` (repr payloads stay strings)."""
    from repro.experiments.series import FigureResult
    from repro.protocols.harness import TransferReport

    kind = payload.get("type")
    if kind == "figure":
        return FigureResult.from_json(payload["data"])
    if kind == "transfer_report":
        return TransferReport.from_json(payload["data"])
    return payload.get("data")
