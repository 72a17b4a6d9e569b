"""Availability-driven failure domains: correlated churn as a loss process.

The paper's four loss behaviours (independent, heterogeneous, FBT-shared,
Gilbert burst) all model the *wire*.  Real deployments also lose whole
receivers to *availability* processes — machines behind a shared rack or
switch fail together, lifetimes are Weibull-ish rather than memoryless,
and measured outage logs are trace-shaped.  This module turns those
processes into the same vocabulary the rest of the repo speaks:

* **Availability generators** (:class:`WeibullAvailability`,
  :class:`PiecewiseRateAvailability`, :class:`EmpiricalAvailability`,
  :class:`TraceAvailability`) each emit a deterministic per-entity
  :class:`AvailabilitySchedule` — the **schedule determinism contract**:
  ``schedule_for(entity)`` is a pure function of ``(seed, entity)``,
  independent of call order, instance identity or process, so the same
  generator replays the same outage world in the simulator and on the
  real UDP loopback.
* **Failure domains** (:class:`DomainTree`): receivers attach to the
  leaves of a site → rack → machine tree; an outage of any domain takes
  down its whole subtree at once.
* **Composition** (:class:`DomainOutageLoss`): a :class:`LossModel`
  whose loss is *link loss OR any-ancestor-down*, wrapping any existing
  model.  It has no spec, so it runs in-process only (``run_sharded``
  with ``jobs > 1`` refuses it, as it refuses :class:`TreeLoss`).
* **The churn bridge** (:func:`member_down_windows`): the same schedule as
  per-member down windows — for :class:`repro.resilience.FaultPlan` and
  :class:`repro.net.chaos.ChaosProxy` alike — or as receiver crashes, so
  one seeded schedule stresses all three stacks.
"""

from __future__ import annotations

import math
import zlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.resilience.faults import ReceiverCrash, Windows
from repro.sim.loss import LossModel, LossSampler

__all__ = [
    "DownWindow",
    "AvailabilitySchedule",
    "AvailabilityGenerator",
    "WeibullAvailability",
    "PiecewiseRateAvailability",
    "EmpiricalAvailability",
    "TraceAvailability",
    "GENERATOR_NAMES",
    "named_generator",
    "DomainTree",
    "DomainOutageLoss",
    "member_down_windows",
]

#: names accepted by :func:`named_generator` (and the CLI ``--failure`` knob)
GENERATOR_NAMES = ("weibull", "piecewise", "gfs", "trace")

#: a window shorter than this is noise, not an outage; dropping it keeps
#: schedules finite even for pathological shape parameters
_MIN_WINDOW = 1e-9


@dataclass(frozen=True)
class DownWindow:
    """One ``[start, end)`` interval during which an entity is down."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.start < self.end:
            raise ValueError(
                f"need 0 <= start < end, got [{self.start}, {self.end})"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


class AvailabilitySchedule:
    """One entity's up/down timeline over ``[0, horizon)``.

    Windows are normalised at construction — clipped to the horizon,
    sorted, and overlapping/touching windows merged — so two schedules
    describing the same downtime compare equal window-for-window.
    """

    def __init__(
        self, windows: Iterable[DownWindow | tuple], horizon: float
    ):
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.horizon = float(horizon)
        raw = []
        for window in windows:
            if not isinstance(window, DownWindow):
                window = DownWindow(float(window[0]), float(window[1]))
            if window.start >= self.horizon:
                continue
            raw.append(
                DownWindow(window.start, min(window.end, self.horizon))
            )
        raw.sort(key=lambda w: w.start)
        merged: list[DownWindow] = []
        for window in raw:
            if merged and window.start <= merged[-1].end:
                if window.end > merged[-1].end:
                    merged[-1] = DownWindow(merged[-1].start, window.end)
            else:
                merged.append(window)
        self.windows: tuple[DownWindow, ...] = tuple(merged)
        self._starts = np.array([w.start for w in merged])
        self._ends = np.array([w.end for w in merged])

    def down_at(self, time: float) -> bool:
        """Is the entity down at ``time``? (False beyond the horizon.)"""
        i = bisect_right(self._starts.tolist(), time) - 1
        return i >= 0 and time < self._ends[i]

    def down_mask(self, times: np.ndarray) -> np.ndarray:
        """Boolean mask over ``times``: True where the entity is down."""
        times = np.asarray(times, dtype=float)
        if not self.windows:
            return np.zeros(times.shape, dtype=bool)
        i = np.searchsorted(self._starts, times, side="right") - 1
        hit = i >= 0
        return hit & (times < self._ends[np.maximum(i, 0)])

    def down_fraction(self) -> float:
        """Fraction of ``[0, horizon)`` spent down."""
        return float(sum(w.duration for w in self.windows) / self.horizon)

    @classmethod
    def union(
        cls, schedules: Sequence["AvailabilitySchedule"], horizon: float
    ) -> "AvailabilitySchedule":
        """Down whenever *any* input schedule is down (subtree semantics)."""
        windows: list[DownWindow] = []
        for schedule in schedules:
            windows.extend(schedule.windows)
        return cls(windows, horizon)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AvailabilitySchedule)
            and self.horizon == other.horizon
            and self.windows == other.windows
        )

    def __hash__(self) -> int:
        return hash((self.horizon, self.windows))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"AvailabilitySchedule({len(self.windows)} windows, "
            f"down={self.down_fraction():.3f}, horizon={self.horizon})"
        )


def _entity_rng(seed: int, entity: str) -> np.random.Generator:
    # crc32 folds the entity name into the seed sequence, so schedules are
    # pure functions of (seed, entity) — no per-instance or call-order state
    return np.random.default_rng([seed, zlib.crc32(str(entity).encode())])


class AvailabilityGenerator(ABC):
    """Deterministic per-entity up/down schedules over a finite horizon.

    The contract every generator obeys (and the suite pins):

    * :meth:`schedule_for` is a **pure function** of ``(seed, entity)`` —
      same inputs, same windows, on any instance, in any order, in any
      process;
    * :meth:`availability` is the configured long-run up-fraction, which
      the empirical down-fraction of sampled schedules converges to.
    """

    kind: str = ""

    def __init__(self, seed: int, horizon: float):
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.seed = int(seed)
        self.horizon = float(horizon)

    def _rng(self, entity: str) -> np.random.Generator:
        return _entity_rng(self.seed, entity)

    @abstractmethod
    def schedule_for(self, entity: str) -> AvailabilitySchedule:
        """The entity's schedule; pure in ``(seed, entity)``."""

    @abstractmethod
    def availability(self) -> float:
        """Configured long-run up-fraction in ``(0, 1]``."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{type(self).__name__}(seed={self.seed}, "
            f"horizon={self.horizon}, A={self.availability():.3f})"
        )


class _RenewalGenerator(AvailabilityGenerator):
    """Shared alternating up/down renewal skeleton.

    Subclasses supply the per-cycle draws, ``_draw_up(rng, now)`` and
    ``_draw_down(rng, now)``; the skeleton walks the clock
    from 0 to the horizon alternating up and down periods, which keeps
    every generator's schedule shape (and its purity argument) identical.
    """

    def schedule_for(self, entity: str) -> AvailabilitySchedule:
        rng = self._rng(entity)
        windows: list[DownWindow] = []
        t = 0.0
        while t < self.horizon:
            t += max(_MIN_WINDOW, self._draw_up(rng, t))
            if t >= self.horizon:
                break
            down = max(_MIN_WINDOW, self._draw_down(rng, t))
            windows.append(
                DownWindow(t, min(t + down, self.horizon))
            )
            t += down
        return AvailabilitySchedule(windows, self.horizon)


class WeibullAvailability(_RenewalGenerator):
    """Weibull lifetimes and repairs (the classic machine-lifetime fit).

    Up periods are ``Weibull(up_shape, up_scale)``, down periods
    ``Weibull(down_shape, down_scale)``; shape < 1 gives the heavy-tailed
    infant-mortality flavour measured in real fleets.  Long-run
    availability is ``E[up] / (E[up] + E[down])`` with
    ``E = scale * gamma(1 + 1/shape)``.
    """

    kind = "weibull"

    def __init__(
        self,
        seed: int = 0,
        horizon: float = 1000.0,
        up_shape: float = 1.5,
        up_scale: float = 8.0,
        down_shape: float = 0.9,
        down_scale: float = 0.7,
    ):
        super().__init__(seed, horizon)
        for name, value in (
            ("up_shape", up_shape),
            ("up_scale", up_scale),
            ("down_shape", down_shape),
            ("down_scale", down_scale),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        self.up_shape = float(up_shape)
        self.up_scale = float(up_scale)
        self.down_shape = float(down_shape)
        self.down_scale = float(down_scale)

    def _draw_up(self, rng, now):
        return self.up_scale * float(rng.weibull(self.up_shape))

    def _draw_down(self, rng, now):
        return self.down_scale * float(rng.weibull(self.down_shape))

    def availability(self) -> float:
        mean_up = self.up_scale * math.gamma(1.0 + 1.0 / self.up_shape)
        mean_down = self.down_scale * math.gamma(1.0 + 1.0 / self.down_shape)
        return mean_up / (mean_up + mean_down)


class PiecewiseRateAvailability(_RenewalGenerator):
    """Phase-dependent failure/repair rates cycling over the horizon.

    ``phases`` is a sequence of ``(duration, mtbf, mttr)`` triples; the
    schedule cycles through them, and an up (down) period starting inside
    a phase is drawn ``Exp(mtbf)`` (``Exp(mttr)``) with that phase's
    parameters — a day/night or load-dependent failure profile.  The
    configured availability is the duration-weighted mean of the per-phase
    ``mtbf / (mtbf + mttr)``; with phase durations long against the mean
    cycle this is also the empirical limit.
    """

    kind = "piecewise"

    def __init__(
        self,
        seed: int = 0,
        horizon: float = 1000.0,
        phases: Sequence[tuple[float, float, float]] = (
            (20.0, 10.0, 0.8),
            (20.0, 4.0, 0.8),
        ),
    ):
        super().__init__(seed, horizon)
        phases = tuple(
            (float(d), float(mtbf), float(mttr)) for d, mtbf, mttr in phases
        )
        if not phases:
            raise ValueError("need at least one phase")
        for duration, mtbf, mttr in phases:
            if duration <= 0 or mtbf <= 0 or mttr <= 0:
                raise ValueError(
                    f"phase values must be positive, got "
                    f"({duration}, {mtbf}, {mttr})"
                )
        self.phases = phases
        self._cycle = sum(d for d, _, _ in phases)

    def _phase_at(self, time: float) -> tuple[float, float, float]:
        position = time % self._cycle
        for duration, mtbf, mttr in self.phases:
            if position < duration:
                return duration, mtbf, mttr
            position -= duration
        return self.phases[-1]

    def _draw_up(self, rng, now):
        _, mtbf, _ = self._phase_at(now)
        return float(rng.exponential(mtbf))

    def _draw_down(self, rng, now):
        _, _, mttr = self._phase_at(now)
        return float(rng.exponential(mttr))

    def availability(self) -> float:
        weighted = sum(
            duration * mtbf / (mtbf + mttr)
            for duration, mtbf, mttr in self.phases
        )
        return weighted / self._cycle


class EmpiricalAvailability(_RenewalGenerator):
    """GFS-style empirical availability: Exp lifetimes, quantile repairs.

    Lifetimes are exponential with mean ``mtbf``; repair durations are
    drawn from a piecewise-linear inverse CDF through
    ``repair_quantiles`` — ``((0.9, 0.4), (0.99, 2.0), (1.0, 6.0))``
    reads "90% of repairs finish within 0.4, 99% within 2, all within 6",
    the shape of measured restart-vs-reimage repair distributions.
    """

    kind = "gfs"

    def __init__(
        self,
        seed: int = 0,
        horizon: float = 1000.0,
        mtbf: float = 12.0,
        repair_quantiles: Sequence[tuple[float, float]] = (
            (0.9, 0.4),
            (0.99, 2.0),
            (1.0, 6.0),
        ),
    ):
        super().__init__(seed, horizon)
        if mtbf <= 0:
            raise ValueError(f"mtbf must be positive, got {mtbf}")
        quantiles = tuple(
            (float(p), float(d)) for p, d in repair_quantiles
        )
        if not quantiles or quantiles[-1][0] != 1.0:
            raise ValueError("repair_quantiles must end at probability 1.0")
        last_p, last_d = 0.0, 0.0
        for p, d in quantiles:
            if not (last_p < p <= 1.0) or d <= last_d:
                raise ValueError(
                    "repair_quantiles must be strictly increasing in both "
                    f"probability and duration, got {quantiles}"
                )
            last_p, last_d = p, d
        self.mtbf = float(mtbf)
        self.repair_quantiles = quantiles

    def _draw_up(self, rng, now):
        return float(rng.exponential(self.mtbf))

    def _draw_down(self, rng, now):
        u = float(rng.random())
        p0, d0 = 0.0, 0.0
        for p1, d1 in self.repair_quantiles:
            if u <= p1:
                return d0 + (d1 - d0) * (u - p0) / (p1 - p0)
            p0, d0 = p1, d1
        return self.repair_quantiles[-1][1]

    def mean_repair(self) -> float:
        """Mean of the piecewise-linear repair distribution."""
        total, p0, d0 = 0.0, 0.0, 0.0
        for p1, d1 in self.repair_quantiles:
            total += (p1 - p0) * (d0 + d1) / 2.0
            p0, d0 = p1, d1
        return total

    def availability(self) -> float:
        return self.mtbf / (self.mtbf + self.mean_repair())


class TraceAvailability(AvailabilityGenerator):
    """Replay of a measured outage log (no randomness at all).

    ``outages`` maps entity name to ``(start, duration)`` pairs.  Entities
    absent from the trace are always up; the ``seed`` exists only for
    interface symmetry and changes nothing.  :meth:`availability` is the
    mean up-fraction over the *traced* entities.
    """

    kind = "trace"

    def __init__(
        self,
        outages: Mapping[str, Sequence[tuple[float, float]]],
        horizon: float,
        seed: int = 0,
    ):
        super().__init__(seed, horizon)
        self.outages: dict[str, tuple[tuple[float, float], ...]] = {
            str(entity): tuple(
                (float(start), float(duration))
                for start, duration in windows
            )
            for entity, windows in outages.items()
        }
        for entity, windows in self.outages.items():
            for start, duration in windows:
                if start < 0 or duration <= 0:
                    raise ValueError(
                        f"trace outage for {entity!r} must have start >= 0 "
                        f"and duration > 0, got ({start}, {duration})"
                    )

    def schedule_for(self, entity: str) -> AvailabilitySchedule:
        windows = [
            (start, start + duration)
            for start, duration in self.outages.get(str(entity), ())
        ]
        return AvailabilitySchedule(windows, self.horizon)

    def availability(self) -> float:
        if not self.outages:
            return 1.0
        fractions = [
            1.0 - self.schedule_for(entity).down_fraction()
            for entity in self.outages
        ]
        return float(sum(fractions) / len(fractions))


def _synthetic_trace(horizon: float, n_entities: int = 16) -> dict:
    """A deterministic staggered-outage trace for the named "trace" world."""
    outages = {}
    for i in range(n_entities):
        start = ((i * 0.37 + 0.11) % 1.0) * horizon * 0.8
        duration = max(_MIN_WINDOW, 0.05 * horizon)
        outages[str(i)] = [(start, duration)]
    return outages


def named_generator(
    name: str, seed: int = 0, horizon: float = 1000.0, time_scale: float = 1.0
) -> AvailabilityGenerator:
    """A canned generator by name (the CLI's ``--failure`` worlds).

    The canned parameters target ~0.88–0.97 availability with outages a
    few percent of the horizon; ``time_scale`` multiplies every duration
    parameter so the same worlds fit simulator seconds or wall-clock
    minutes.
    """
    if name not in GENERATOR_NAMES:
        raise ValueError(
            f"unknown failure generator {name!r}; known: "
            f"{sorted(GENERATOR_NAMES)}"
        )
    if time_scale <= 0:
        raise ValueError(f"time_scale must be positive, got {time_scale}")
    s = time_scale
    if name == "weibull":
        return WeibullAvailability(
            seed=seed, horizon=horizon,
            up_shape=1.5, up_scale=8.0 * s,
            down_shape=0.9, down_scale=0.7 * s,
        )
    if name == "piecewise":
        return PiecewiseRateAvailability(
            seed=seed, horizon=horizon,
            phases=((20.0 * s, 10.0 * s, 0.8 * s), (20.0 * s, 4.0 * s, 0.8 * s)),
        )
    if name == "gfs":
        return EmpiricalAvailability(
            seed=seed, horizon=horizon, mtbf=12.0 * s,
            repair_quantiles=((0.9, 0.4 * s), (0.99, 2.0 * s), (1.0, 6.0 * s)),
        )
    return TraceAvailability(
        _synthetic_trace(horizon), horizon, seed=seed
    )


# ----------------------------------------------------------------------
# hierarchical failure domains
# ----------------------------------------------------------------------
_LEVEL_NAMES = ("site", "rack", "machine", "node")


class DomainTree:
    """A regular domain hierarchy with receivers attached to the leaves.

    ``branching`` gives the fan-out per level: ``(2, 3)`` is 2 sites of 3
    racks.  Domains are addressed by slash paths (``"site0/rack2"``); an
    outage of a domain takes down every receiver under it.  Receivers are
    spread evenly across the leaves in index order, so receiver ``r``
    attaches to leaf ``r * n_leaves // n_receivers``.
    """

    def __init__(
        self,
        n_receivers: int,
        branching: Sequence[int] = (2, 2),
        levels: Sequence[str] | None = None,
    ):
        branching = tuple(int(b) for b in branching)
        if not branching or any(b < 1 for b in branching):
            raise ValueError(
                f"branching must be non-empty positive ints, got {branching}"
            )
        if n_receivers < 1:
            raise ValueError(f"need >= 1 receiver, got {n_receivers}")
        if levels is None:
            levels = tuple(
                _LEVEL_NAMES[i] if i < len(_LEVEL_NAMES) else f"level{i}"
                for i in range(len(branching))
            )
        else:
            levels = tuple(str(level) for level in levels)
        if len(levels) != len(branching):
            raise ValueError(
                f"{len(levels)} level names for {len(branching)} levels"
            )
        self.n_receivers = int(n_receivers)
        self.branching = branching
        self.levels = levels

        # enumerate leaf paths in index order, collecting every prefix
        self._leaves: list[str] = []
        self._all_domains: list[str] = []
        seen: set[str] = set()

        def walk(prefix: str, depth: int) -> None:
            for i in range(self.branching[depth]):
                path = (
                    f"{prefix}/{self.levels[depth]}{i}"
                    if prefix
                    else f"{self.levels[depth]}{i}"
                )
                if path not in seen:
                    seen.add(path)
                    self._all_domains.append(path)
                if depth + 1 == len(self.branching):
                    self._leaves.append(path)
                else:
                    walk(path, depth + 1)

        walk("", 0)
        n_leaves = len(self._leaves)
        self._leaf_of = [
            r * n_leaves // self.n_receivers for r in range(self.n_receivers)
        ]
        self._members: dict[str, list[int]] = {d: [] for d in self._all_domains}
        for r, leaf_index in enumerate(self._leaf_of):
            for ancestor in self._prefixes(self._leaves[leaf_index]):
                self._members[ancestor].append(r)

    @staticmethod
    def _prefixes(path: str) -> list[str]:
        parts = path.split("/")
        return ["/".join(parts[: i + 1]) for i in range(len(parts))]

    @classmethod
    def regular(
        cls,
        n_receivers: int,
        branching: Sequence[int] = (2, 2),
        levels: Sequence[str] | None = None,
    ) -> "DomainTree":
        """Alias constructor mirroring :func:`repro.sim.tree` builders."""
        return cls(n_receivers, branching=branching, levels=levels)

    @property
    def leaves(self) -> tuple[str, ...]:
        return tuple(self._leaves)

    def domains(self) -> tuple[str, ...]:
        """Every domain path, shallowest first within each subtree."""
        return tuple(self._all_domains)

    def domain_of(self, receiver: int) -> str:
        """The leaf domain receiver ``receiver`` attaches to."""
        self._check_receiver(receiver)
        return self._leaves[self._leaf_of[receiver]]

    def ancestors_of(self, receiver: int) -> tuple[str, ...]:
        """Every domain containing the receiver, shallowest first."""
        self._check_receiver(receiver)
        return tuple(self._prefixes(self.domain_of(receiver)))

    def receivers_in(self, domain: str) -> tuple[int, ...]:
        """Receivers under ``domain`` (its whole subtree)."""
        try:
            return tuple(self._members[domain])
        except KeyError:
            raise ValueError(
                f"unknown domain {domain!r}; known: {self._all_domains}"
            ) from None

    def receivers_by_leaf(self) -> dict[str, tuple[int, ...]]:
        """Leaf path -> its receivers, only non-empty leaves."""
        return {
            leaf: self.receivers_in(leaf)
            for leaf in self._leaves
            if self._members[leaf]
        }

    def _check_receiver(self, receiver: int) -> None:
        if not 0 <= receiver < self.n_receivers:
            raise ValueError(
                f"receiver must be in [0, {self.n_receivers}), got {receiver}"
            )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DomainTree(R={self.n_receivers}, branching={self.branching})"
        )


def _leaf_schedules(
    tree: DomainTree, generator: AvailabilityGenerator
) -> dict[str, AvailabilitySchedule]:
    """Leaf path -> union of every ancestor domain's schedule.

    The union is the subtree semantics: a receiver is down whenever *any*
    domain above it is down.  Domain schedules are keyed by path, so two
    receivers under the same rack share that rack's outages exactly.
    """
    domain_schedules = {
        domain: generator.schedule_for(domain) for domain in tree.domains()
    }
    out = {}
    for leaf in tree.leaves:
        chain = [domain_schedules[d] for d in DomainTree._prefixes(leaf)]
        out[leaf] = AvailabilitySchedule.union(chain, generator.horizon)
    if obs.is_enabled():
        obs.counter("churn.windows", generator=generator.kind).inc(
            sum(len(s.windows) for s in out.values())
        )
    return out


class DomainOutageLoss(LossModel):
    """Loss = link loss OR any-ancestor-domain-down.

    Wraps any base :class:`LossModel`; while a receiver's site, rack or
    machine is down per the generator's schedule, every packet to it is
    lost regardless of what the base model says.  The schedule is a fixed
    (seed-determined) function of absolute simulation time, so two
    realisations of the same model lose to the same outage windows — the
    randomness lives entirely in the base model and in the generator's
    seed.
    """

    def __init__(
        self,
        base: LossModel,
        tree: DomainTree,
        generator: AvailabilityGenerator,
    ):
        if tree.n_receivers != base.n_receivers:
            raise ValueError(
                f"domain tree has {tree.n_receivers} receivers but the base "
                f"model has {base.n_receivers}"
            )
        super().__init__(base.n_receivers)
        self.base = base
        self.tree = tree
        self.generator = generator
        leaf_schedules = _leaf_schedules(tree, generator)
        self._schedules = [
            leaf_schedules[tree.domain_of(r)] for r in range(self.n_receivers)
        ]

    def receiver_schedule(self, receiver: int) -> AvailabilitySchedule:
        """The merged outage schedule governing ``receiver``."""
        self.tree._check_receiver(receiver)
        return self._schedules[receiver]

    def _down_mask(self, times: np.ndarray) -> np.ndarray:
        return np.stack(
            [schedule.down_mask(times) for schedule in self._schedules]
        )

    def sample_at(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        base = self.base.sample_at(times, rng)
        return base | self._down_mask(np.asarray(times, dtype=float))

    def start(self, rng: np.random.Generator) -> "DomainOutageSampler":
        return DomainOutageSampler(self, rng)

    def marginal_loss_probability(self) -> np.ndarray:
        base = self.base.marginal_loss_probability()
        down = np.array(
            [schedule.down_fraction() for schedule in self._schedules]
        )
        return 1.0 - (1.0 - base) * (1.0 - down)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DomainOutageLoss(base={self.base!r}, tree={self.tree!r}, "
            f"generator={self.generator!r})"
        )


class DomainOutageSampler(LossSampler):
    """One realisation: the base model's sampler OR the fixed schedule."""

    def __init__(self, model: DomainOutageLoss, rng: np.random.Generator):
        super().__init__(model)
        self.model: DomainOutageLoss = model
        self._base_sampler = model.base.start(rng)

    def sample(self, times: np.ndarray) -> np.ndarray:
        times = self._check_forward(times)
        base = self._base_sampler.sample(times)
        return base | self.model._down_mask(times)


# ----------------------------------------------------------------------
# the churn bridge: the same schedule drives all three stacks
# ----------------------------------------------------------------------
def member_down_windows(
    generator: AvailabilityGenerator,
    n_members: int,
    tree: DomainTree | None = None,
    offset: float = 0.0,
    mode: str = "outage",
) -> tuple[Windows, ...] | tuple[ReceiverCrash, ...]:
    """Each member's down windows under ``generator``, or its crashes.

    Member ``i`` gets the schedule of entity ``str(i)`` or, with a
    ``tree``, the merged schedule of its domain chain (a rack outage takes
    down every member behind the rack).  ``offset`` shifts every window
    later, e.g. past a join handshake.  ``mode="outage"`` returns member
    ``i``'s ``(lo, hi)`` windows as ``windows[i]``, the partition reading
    (state kept) for ``FaultPlan.down`` and ``ChaosProxy(down=)``;
    ``mode="crash"`` returns one :class:`ReceiverCrash` per window, member
    by member, the reboot reading (decoder state lost) for
    ``FaultPlan.crashes``.  Pure in its arguments, so a seed replays.
    """
    if mode not in ("outage", "crash"):
        raise ValueError(f"mode must be 'outage' or 'crash', got {mode!r}")
    if n_members < 1:
        raise ValueError(f"need >= 1 member, got {n_members}")
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    if tree is not None:
        if tree.n_receivers != n_members:
            raise ValueError(
                f"domain tree has {tree.n_receivers} receivers, "
                f"expected {n_members} members"
            )
        leaf_schedules = _leaf_schedules(tree, generator)
        schedules = [
            leaf_schedules[tree.domain_of(i)] for i in range(n_members)
        ]
    else:
        schedules = [generator.schedule_for(str(i)) for i in range(n_members)]
    windows = tuple(
        tuple((w.start + offset, w.end + offset) for w in schedule.windows)
        for schedule in schedules
    )
    if obs.is_enabled():
        obs.counter(
            "churn.receivers_affected", generator=generator.kind, mode=mode
        ).inc(sum(1 for member in windows if member))
    if mode == "outage":
        return windows
    return tuple(
        ReceiverCrash(receiver=i, at=lo, downtime=hi - lo)
        for i, member in enumerate(windows)
        for lo, hi in member
    )
