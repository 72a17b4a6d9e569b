"""Packet-loss models.

The paper evaluates FEC/ARQ combinations under four loss behaviours; each is
a :class:`LossModel` here:

* **independent homogeneous** loss — :class:`BernoulliLoss` (Section 3),
* **independent heterogeneous** loss — :class:`HeterogeneousLoss` with the
  two-class populations of Section 3.3,
* **spatially correlated (shared)** loss on a full binary tree —
  :class:`FullBinaryTreeLoss` (Section 4.1), plus :class:`TreeLoss` for
  arbitrary multicast trees,
* **temporally correlated (burst)** loss from a two-state continuous-time
  Markov chain — :class:`GilbertLoss` (Section 4.2, Bolot's channel).

Every model answers one question: *given packet transmissions at simulated
times ``t_1 <= ... <= t_T``, which receivers lose which transmissions?*  The
answer has two views of one draw.  :meth:`LossSampler.losses` returns the
loss *coordinates* ``(rows, cols)`` -- receiver and transmission index of
every lost packet, sorted by receiver then transmission -- and
:meth:`LossSampler.sample` / :meth:`LossModel.sample_at` return the boolean
``(R, T)`` matrix with ``True`` at exactly those coordinates.

For the models without temporal correlation (:class:`BernoulliLoss`,
:class:`HeterogeneousLoss`, :class:`FullBinaryTreeLoss`) the coordinates
are what is drawn: :func:`_lost_cells` walks a grid of iid cells by the
geometric gaps between losses, so a draw costs its losses, not its cells,
and the matrix is zeros plus one scatter.  A million receivers at
``p = 0.01`` are 1 % of a million draws per transmission; the integrated
Monte-Carlo kernels (:mod:`repro.mc.integrated`) consume the coordinates
and never form the matrix.  The models with state (:class:`GilbertLoss`,
:class:`BurstyTreeLoss`, :class:`ScriptedLoss`) and :class:`TreeLoss` draw
the matrix, and their coordinates are its ``np.nonzero``.  Each model has
exactly one draw -- nothing selects between a sparse and a dense sampler --
and the dense draws the memoryless models used to make survive only as the
oracle of ``tests/integration/test_mc_equivalence.py`` (DESIGN.md section
11.5).

A chunk of Monte-Carlo replications samples in lockstep:
:meth:`LossModel.start_many` begins one realisation per generator and
:meth:`LossChunk.cells` / :meth:`LossChunk.losses` advance any subset of
them by one row of times each.  Realisation ``i`` draws from ``rngs[i]`` exactly what
``start(rngs[i])`` would.  For the memoryless models :func:`_walk` walks the
members' grids together -- every generator makes its own ``geometric``
calls, and the arithmetic between them runs once over the stacked batches
-- and a lone sampler is the one-generator case of the same walk; every
other model steps one sampler per generator.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

__all__ = [
    "LossModel",
    "LossSampler",
    "LossChunk",
    "BernoulliLoss",
    "HeterogeneousLoss",
    "two_class_probabilities",
    "GilbertLoss",
    "GilbertSampler",
    "ScriptedLoss",
    "BurstyTreeLoss",
    "FullBinaryTreeLoss",
    "TreeLoss",
    "loss_model_from_spec",
    "spec_kinds",
]


def _validate_times(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D array, got shape {times.shape}")
    # one pass that asserts order rather than searching for a reversal: a
    # NaN fails every comparison, so it is rejected wherever it sits.  A
    # single instant (``sample_one``, one event-simulator send) has no
    # pair to compare and is checked on its own, without array work.
    if times.size > 1:
        valid = (times[1:] >= times[:-1]).all()
    else:
        valid = times.size == 0 or not math.isnan(times[0])
    if not valid:
        raise ValueError("times must be non-decreasing and free of NaN")
    return times


def _lost_cells(cells: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of the lost cells among ``cells`` iid Bernoulli(p)
    cells: the one-generator case of :func:`_walk`."""
    return _walk(cells, p, (rng,))


def _walk(
    cells: int,
    p: float,
    rngs: Sequence[np.random.Generator],
    labels: np.ndarray | None = None,
) -> np.ndarray:
    """The lost cells among ``cells`` iid Bernoulli(p) cells, once per generator.

    Returns the sorted keys ``label * cells + cell`` of every loss, where
    ``labels`` are ascending integers, one per generator (``0, 1, ...`` by
    default), so one generator's losses are one run of the keys.  The gap
    from one loss to the next is geometric, so the losses are the running
    sum of geometric gaps: each generator draws one ``rng.geometric`` batch
    sized to cover the grid (mean + 8 sd + 16 gaps) and a further batch
    only while its walk has not.  Restarting after the last loss of a
    batch, or of an earlier call, is exact because the gap is memoryless.
    A generator's calls are those of a walk of its own -- same batch, same
    order -- so walking ``n`` generators together is ``n`` single walks;
    only the arithmetic between the draws runs once over the stacked
    batches.  ``p == 0`` draws nothing.
    """
    if p <= 0.0 or cells <= 0 or not len(rngs):
        return np.empty(0, dtype=np.int64)
    mean = cells * p
    batch = int(mean + 8.0 * math.sqrt(mean * (1.0 - p))) + 16
    if labels is None:
        labels = np.arange(len(rngs))
    first = labels[:, None] * cells
    # a gap of 1 is the very next cell, and each walk starts before cell 0
    reached = _gap_walk(cells, p, rngs, batch, first - 1)
    inside = reached < first + cells
    keys = reached[inside]
    short = inside[:, -1]
    if not np.count_nonzero(short):
        return keys
    # rare: some batch fell short of its grid; walk those generators on
    found = [keys]
    walking = np.flatnonzero(short)
    while walking.size:
        reached = _gap_walk(
            cells, p, [rngs[i] for i in walking], batch, reached[short, -1:]
        )
        inside = reached < first[walking] + cells
        found.append(reached[inside])
        short = inside[:, -1]
        walking = walking[short]
    return np.sort(np.concatenate(found))


def _gap_walk(
    cells: int,
    p: float,
    rngs: Sequence[np.random.Generator],
    batch: int,
    origin: np.ndarray,
) -> np.ndarray:
    """Positions reached by ``batch`` geometric gaps per generator, one
    row each, walking on from that row's ``origin`` (a column)."""
    draws = [rng.geometric(p, size=(1, batch)) for rng in rngs]
    # a lone batch is walked where it was drawn: at R = 10^6 a copy is 8 MB
    gaps = draws[0] if len(draws) == 1 else np.concatenate(draws)
    # for vanishing p a gap saturates at 2**63 - 1 and the running sum
    # would wrap negative; any gap past the grid ends the walk all the same
    np.minimum(gaps, cells + 1, out=gaps)
    gaps[:, :1] += origin
    return gaps.cumsum(axis=1, out=gaps)


#: the label of a lone generator's walk: its keys are its cells
_ALONE = np.zeros(1, dtype=np.int64)


class LossModel(ABC):
    """Base class: a joint loss process over ``n_receivers`` receivers."""

    def __init__(self, n_receivers: int):
        if n_receivers < 1:
            raise ValueError(f"need at least one receiver, got {n_receivers}")
        self.n_receivers = n_receivers

    @abstractmethod
    def sample_at(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample loss indicators at the given transmission times.

        Returns a boolean array of shape ``(n_receivers, len(times))`` where
        ``True`` marks a lost packet.  Successive calls are independent
        realisations of the process.
        """

    @abstractmethod
    def marginal_loss_probability(self) -> np.ndarray:
        """Per-receiver stationary packet-loss probability, shape ``(R,)``."""

    def sample_one(self, time: float, rng: np.random.Generator) -> np.ndarray:
        """Loss vector for a single transmission at ``time`` (shape ``(R,)``)."""
        return self.sample_at(np.array([time]), rng)[:, 0]

    @abstractmethod
    def start(self, rng: np.random.Generator) -> "LossSampler":
        """Begin *one realisation* of the process for incremental sampling.

        Unlike :meth:`sample_at`, successive :meth:`LossSampler.sample`
        calls on the returned object continue the same realisation — which
        matters for temporally-correlated models, where the chain state must
        carry across retransmission rounds.  Models without temporal
        correlation return a stateless wrapper.
        """

    def start_many(self, rngs: Sequence[np.random.Generator]) -> "LossChunk":
        """Begin one realisation per generator, to be sampled in lockstep.

        Realisation ``i`` draws from ``rngs[i]`` exactly what
        ``start(rngs[i])`` would draw for the same ``times``, call by call.
        This default steps one :meth:`start` sampler per generator, which
        keeps every model's draw; models without temporal correlation
        share the walk between the draws instead.
        """
        return _SamplerChunk(self, [self.start(rng) for rng in rngs])

    def to_spec(self) -> dict:
        """JSON-safe description rebuildable by :func:`loss_model_from_spec`.

        The sharded Monte-Carlo engine ships loss models to spawned worker
        processes as these plain-data specs, so every model that should
        parallelise across processes must round-trip here.
        Models that cannot (e.g. :class:`TreeLoss`, which wraps a live
        ``networkx`` graph) raise ``NotImplementedError`` and are still
        usable in-process (``jobs=1``).
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no spec serialization; "
            f"it can only run in-process (jobs=1)"
        )


class LossSampler:
    """One realisation of a loss process, sampled forward in time."""

    def __init__(self, model: "LossModel"):
        self.model = model
        self.last_time = -math.inf

    def _check_forward(self, times: np.ndarray) -> np.ndarray:
        times = _validate_times(times)
        if times.size and times[0] < self.last_time:
            raise ValueError(
                f"sampler already advanced to t={self.last_time}; "
                f"cannot sample at earlier t={times[0]}"
            )
        if times.size:
            self.last_time = float(times[-1])
        return times

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Loss matrix ``(R, len(times))`` for further transmissions."""
        raise NotImplementedError

    def losses(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Loss coordinates ``(rows, cols)`` for further transmissions.

        The same draw as :meth:`sample`, told as where it is ``True``:
        receiver index and index into ``times`` of every lost packet,
        sorted by receiver then transmission, no pair repeated.
        """
        return np.nonzero(self.sample(times))


class LossChunk:
    """Realisations of one loss process, one per generator of a chunk.

    The realisations are stacked into one tall grid: receiver ``r`` of
    realisation ``m`` is its row ``m * R + r``.  :meth:`cells` and
    :meth:`losses` advance some of them, the ``members``, by one row of
    ``times`` each: the chunk-level :meth:`LossSampler.losses`.
    """

    def __init__(self, model: "LossModel"):
        self.model = model

    def cells(self, members: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Sorted, distinct flat indices ``row * T + col`` of the lost
        packets of further transmissions, ``row = member * R + receiver``.

        ``members`` are distinct, ascending realisation indices and
        ``times`` holds one row per member of ``T`` times, each checked as
        :meth:`LossSampler.losses` checks its ``times`` (non-decreasing,
        free of NaN, not before that realisation's last time).
        """
        raise NotImplementedError

    def losses(
        self, members: np.ndarray, times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The same draw as :meth:`cells`, told as coordinates ``(rows,
        cols)``: ``np.divmod(rows, R)`` is a loss's member and receiver."""
        cols = self.cells(members, times)
        n_times = np.shape(times)[1]
        # a step may hold a million losses: take the column in place
        rows = cols // n_times
        cols -= rows * n_times
        return rows, cols


def _member_rows(
    members: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    members = np.asarray(members, dtype=np.intp)
    times = np.asarray(times, dtype=float)
    if times.ndim != 2 or times.shape[0] != members.size:
        raise ValueError(
            f"times must hold one row per member: {members.size} members, "
            f"times of shape {times.shape}"
        )
    return members, times


class _SamplerChunk(LossChunk):
    """One :class:`LossSampler` per generator, advanced member by member."""

    def __init__(self, model: "LossModel", samplers: list[LossSampler]):
        super().__init__(model)
        self.samplers = samplers

    def cells(self, members, times):
        members, times = _member_rows(members, times)
        n_times = times.shape[1]
        cells = [np.empty(0, dtype=np.intp)]
        for member, row in zip(members.tolist(), times):
            rows, cols = self.samplers[member].losses(row)
            cells.append((rows + member * self.model.n_receivers) * n_times + cols)
        return np.concatenate(cells)


class _MemorylessLoss(LossModel):
    """A model without temporal correlation.

    A draw depends on how many transmissions are asked for, not on when
    they happen, so a subclass answers :meth:`_cells` -- the lost cells of
    the row-major ``(R, n_times)`` grid, once per generator -- for a count
    the caller has already validated, and the matrix and the coordinates
    are both read off that one answer.  A lone sampler is the
    one-generator case of the same answer.
    """

    @abstractmethod
    def _cells(
        self,
        n_times: int,
        rngs: Sequence[np.random.Generator],
        labels: np.ndarray,
    ) -> np.ndarray:
        """Sorted, distinct keys ``(label * R + row) * n_times + col`` of
        the losses, ``labels`` being ascending, one per generator."""

    def _mask(self, n_times: int, rng: np.random.Generator) -> np.ndarray:
        lost = np.zeros((self.n_receivers, n_times), dtype=bool)
        lost.reshape(-1)[self._cells(n_times, (rng,), _ALONE)] = True
        return lost

    def sample_at(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self._mask(_validate_times(times).size, rng)

    def start(self, rng: np.random.Generator) -> "_MemorylessSampler":
        return _MemorylessSampler(self, rng)

    def start_many(self, rngs: Sequence[np.random.Generator]) -> "_MemorylessChunk":
        return _MemorylessChunk(self, rngs)


class _MemorylessSampler(LossSampler):
    """Sampler for models with no temporal correlation."""

    def __init__(self, model: _MemorylessLoss, rng: np.random.Generator):
        super().__init__(model)
        self.model: _MemorylessLoss = model
        self.rng = rng

    def sample(self, times: np.ndarray) -> np.ndarray:
        return self.model._mask(self._check_forward(times).size, self.rng)

    def losses(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_times = self._check_forward(times).size
        return np.divmod(self.model._cells(n_times, (self.rng,), _ALONE), n_times)


class _MemorylessChunk(LossChunk):
    """Realisations of a model without temporal correlation: one walk over
    the members' generators per call."""

    def __init__(self, model: _MemorylessLoss, rngs: Sequence[np.random.Generator]):
        super().__init__(model)
        self.model: _MemorylessLoss = model
        self.rngs = list(rngs)
        self.last_time = np.full(len(self.rngs), -math.inf)

    def cells(self, members, times):
        members, times = _member_rows(members, times)
        n_times = times.shape[1]
        if n_times:
            # _check_forward, row by row, in one pass: a NaN fails every
            # comparison, and a single instant is checked on its own
            if n_times > 1:
                valid = (times[:, 1:] >= times[:, :-1]).all()
            else:
                valid = not np.isnan(times).any()
            if not valid:
                raise ValueError("times must be non-decreasing and free of NaN")
            behind = np.flatnonzero(times[:, 0] < self.last_time[members])
            if behind.size:
                row = behind[0]
                raise ValueError(
                    f"sampler already advanced to "
                    f"t={self.last_time[members[row]]}; "
                    f"cannot sample at earlier t={times[row, 0]}"
                )
            self.last_time[members] = times[:, -1]
        # labelled by member, the model's keys are the stacked grid's cells
        return self.model._cells(
            n_times, [self.rngs[i] for i in members.tolist()], members
        )


class BernoulliLoss(_MemorylessLoss):
    """Independent, homogeneous loss: every packet at every receiver is lost
    with probability ``p``, independently in space and time (Section 3)."""

    def __init__(self, n_receivers: int, p: float):
        super().__init__(n_receivers)
        if not 0.0 <= p < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {p}")
        self.p = p

    def _cells(self, n_times, rngs, labels):
        return _walk(self.n_receivers * n_times, self.p, rngs, labels)

    def marginal_loss_probability(self) -> np.ndarray:
        return np.full(self.n_receivers, self.p)

    def to_spec(self) -> dict:
        return {"kind": "bernoulli", "n_receivers": self.n_receivers, "p": self.p}

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"BernoulliLoss(R={self.n_receivers}, p={self.p})"


class HeterogeneousLoss(_MemorylessLoss):
    """Independent loss with a per-receiver probability vector ``p(r)``.

    Receivers that share a probability are one homogeneous population, so
    a draw is one walk (:func:`_walk`) per *distinct* positive probability,
    in ascending order of probability: two walks for the
    two-class populations of Section 3.3 whatever ``R`` is.  A vector of
    ``R`` different values costs ``R`` walks.
    """

    def __init__(self, probabilities: np.ndarray):
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.ndim != 1:
            raise ValueError("probabilities must be a 1-D vector")
        if np.any((probabilities < 0) | (probabilities >= 1)):
            raise ValueError("all loss probabilities must be in [0, 1)")
        super().__init__(probabilities.size)
        self.probabilities = probabilities
        #: (probability, receivers holding it, ascending), lossless class left out
        self._classes = [
            (float(p), np.flatnonzero(probabilities == p))
            for p in np.unique(probabilities)
            if p > 0.0
        ]

    def _cells(self, n_times, rngs, labels):
        parts = []
        for p, receivers in self._classes:
            # the class's own grid, one row per receiver holding p
            key = _walk(receivers.size * n_times, p, rngs, labels)
            row, col = np.divmod(key, n_times)
            label, row = np.divmod(row, receivers.size)
            parts.append((label * self.n_receivers + receivers[row]) * n_times + col)
        if not parts:
            return np.empty(0, dtype=np.int64)
        # each class is sorted in itself; the classes interleave by receiver
        return parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))

    def marginal_loss_probability(self) -> np.ndarray:
        return self.probabilities.copy()

    def to_spec(self) -> dict:
        return {
            "kind": "heterogeneous",
            "probabilities": [float(p) for p in self.probabilities],
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"HeterogeneousLoss(R={self.n_receivers})"


def two_class_probabilities(
    n_receivers: int,
    fraction_high: float,
    p_low: float = 0.01,
    p_high: float = 0.25,
) -> np.ndarray:
    """The two-class population of Section 3.3.

    ``round(fraction_high * R)`` receivers get loss probability ``p_high``
    (placed at the end of the vector), the rest ``p_low``.
    """
    if not 0.0 <= fraction_high <= 1.0:
        raise ValueError(f"fraction_high must be in [0, 1], got {fraction_high}")
    n_high = int(round(fraction_high * n_receivers))
    probabilities = np.full(n_receivers, p_low)
    if n_high:
        probabilities[n_receivers - n_high:] = p_high
    return probabilities


class GilbertLoss(LossModel):
    """Two-state continuous-time Markov burst-loss channel (Section 4.2).

    State 0 is *good* (no loss), state 1 is *bad* (every packet sent while
    the chain is in state 1 is lost).  ``rate_good_to_bad`` is the paper's
    ``lambda_0`` and ``rate_bad_to_good`` its ``lambda_1``; the stationary
    loss probability is ``lambda_0 / (lambda_0 + lambda_1)``.

    Each receiver runs an independent chain; chains start in their
    stationary distribution.
    """

    def __init__(self, n_receivers: int, rate_good_to_bad: float, rate_bad_to_good: float):
        super().__init__(n_receivers)
        if rate_good_to_bad <= 0 or rate_bad_to_good <= 0:
            raise ValueError("both transition rates must be positive")
        self.rate_good_to_bad = rate_good_to_bad
        self.rate_bad_to_good = rate_bad_to_good

    @classmethod
    def from_loss_and_burst(
        cls,
        n_receivers: int,
        p: float,
        mean_burst_length: float,
        packet_interval: float,
    ) -> "GilbertLoss":
        """The paper's parameterisation.

        Given packet-loss probability ``p``, mean number of *consecutively
        lost packets* ``mean_burst_length`` and packet spacing
        ``packet_interval`` (the paper's ``Delta``), set

        ``lambda_1 = -(1/Delta) * ln(1 - 1/mean_burst)`` so that a packet
        following a lost packet is again lost with probability
        ``1 - 1/mean_burst`` (geometric bursts of the right mean), and
        ``lambda_0 = lambda_1 * p / (1 - p)`` so the stationary loss
        probability is ``p``.
        """
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        if mean_burst_length <= 1.0:
            raise ValueError(
                f"mean burst length must exceed 1 packet, got {mean_burst_length}"
            )
        if packet_interval <= 0:
            raise ValueError("packet_interval must be positive")
        rate_bad_to_good = -math.log(1.0 - 1.0 / mean_burst_length) / packet_interval
        rate_good_to_bad = rate_bad_to_good * p / (1.0 - p)
        return cls(n_receivers, rate_good_to_bad, rate_bad_to_good)

    # -- stationary quantities -----------------------------------------
    @property
    def stationary_loss_probability(self) -> float:
        total = self.rate_good_to_bad + self.rate_bad_to_good
        return self.rate_good_to_bad / total

    def marginal_loss_probability(self) -> np.ndarray:
        return np.full(self.n_receivers, self.stationary_loss_probability)

    def transition_probabilities(self, gap: float) -> tuple[float, float]:
        """``(P(bad | was good), P(bad | was bad))`` after time ``gap``."""
        total = self.rate_good_to_bad + self.rate_bad_to_good
        pi_bad = self.rate_good_to_bad / total
        decay = math.exp(-total * gap)
        p_bad_from_good = pi_bad * (1.0 - decay)
        p_bad_from_bad = pi_bad + (1.0 - pi_bad) * decay
        return p_bad_from_good, p_bad_from_bad

    # -- sampling -------------------------------------------------------
    def start(self, rng: np.random.Generator) -> "GilbertSampler":
        return GilbertSampler(self, rng)

    def sample_at(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Stepwise sampling: vectorised over receivers, sequential in time.

        Efficient when the number of transmission instants is moderate (the
        protocol experiments).  For very long single-receiver traces use
        :meth:`sample_chain`.
        """
        return GilbertSampler(self, rng).sample(times)

    def sample_chain(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Single-chain sampling via exponential sojourn times.

        Cost is proportional to the number of *state changes*, not the number
        of packets, which makes million-packet traces (Figure 14) cheap.
        Returns a boolean vector of length ``len(times)``.
        """
        times = _validate_times(times)
        if times.size == 0:
            return np.zeros(0, dtype=bool)
        horizon = float(times[-1])
        state = bool(rng.random() < self.stationary_loss_probability)

        boundaries = [0.0]
        states = [state]
        t = 0.0
        while t <= horizon:
            rate = self.rate_bad_to_good if state else self.rate_good_to_bad
            t += rng.exponential(1.0 / rate)
            boundaries.append(t)
            state = not state
            states.append(state)
        # interval i is [boundaries[i], boundaries[i+1]) with states[i]
        interval = np.searchsorted(np.asarray(boundaries), times, side="right") - 1
        return np.asarray(states, dtype=bool)[interval]

    def to_spec(self) -> dict:
        return {
            "kind": "gilbert",
            "n_receivers": self.n_receivers,
            "rate_good_to_bad": self.rate_good_to_bad,
            "rate_bad_to_good": self.rate_bad_to_good,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"GilbertLoss(R={self.n_receivers}, "
            f"l0={self.rate_good_to_bad:.4g}, l1={self.rate_bad_to_good:.4g})"
        )


class GilbertSampler(LossSampler):
    """Stateful per-receiver Markov chains, advanced call by call.

    The chains start in the stationary distribution on the first sample and
    thereafter evolve with the exact two-state CTMC transition probabilities
    over each inter-packet gap — including the gaps *between* successive
    :meth:`sample` calls, so retransmission rounds see the correlated state
    they would in a continuous simulation.
    """

    def __init__(self, model: GilbertLoss, rng: np.random.Generator):
        super().__init__(model)
        self.model: GilbertLoss = model
        self.rng = rng
        self._states: np.ndarray | None = None  # lazily drawn, (R,) bool
        self._state_time = 0.0

    def sample(self, times: np.ndarray) -> np.ndarray:
        times = self._check_forward(times)
        model = self.model
        lost = np.empty((model.n_receivers, times.size), dtype=bool)
        for j, t in enumerate(times):
            if self._states is None:
                pi_bad = model.stationary_loss_probability
                self._states = self.rng.random(model.n_receivers) < pi_bad
            else:
                gap = float(t) - self._state_time
                if gap > 0:
                    p_from_good, p_from_bad = model.transition_probabilities(gap)
                    threshold = np.where(self._states, p_from_bad, p_from_good)
                    self._states = self.rng.random(model.n_receivers) < threshold
            self._state_time = float(t)
            lost[:, j] = self._states
        return lost


class FullBinaryTreeLoss(_MemorylessLoss):
    """Shared loss on a full binary tree of height ``d`` (Section 4.1).

    The source sits at the root, the ``R = 2^d`` receivers at the leaves and
    *every* node (root and leaves included) independently drops each packet
    with probability ``p_node``, chosen so that each receiver's end-to-end
    loss probability equals ``p``::

        p = 1 - (1 - p_node)**(d + 1)

    A drop at an interior node is shared by its whole subtree, producing the
    spatial correlation the section studies.  There is no temporal
    correlation: transmissions are independent.

    A draw is two walks (:func:`_walk`), the ``2^d`` leaves and then the
    ``2^d - 1`` interior nodes in level order; an interior drop becomes the
    interval of receivers below the node, never an ``R``-wide mask per level.
    """

    def __init__(self, depth: int, p: float):
        if depth < 0:
            raise ValueError(f"tree height must be >= 0, got {depth}")
        if not 0.0 <= p < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {p}")
        super().__init__(2**depth)
        self.depth = depth
        self.p = p
        self.p_node = 1.0 - (1.0 - p) ** (1.0 / (depth + 1))
        #: level-order index of the first node of each interior level
        self._level_start = 2 ** np.arange(depth, dtype=np.int64) - 1

    def _cells(self, n_times, rngs, labels):
        # two grids of iid cells: the leaves (one row per receiver) and the
        # 2^d - 1 interior nodes in level order, root first
        n_inner = self.n_receivers - 1
        leaves = _walk(self.n_receivers * n_times, self.p_node, rngs, labels)
        inner = _walk(n_inner * n_times, self.p_node, rngs, labels)
        if inner.size == 0:
            return leaves
        # a drop at node i of level l is lost by the whole subtree below
        # it: the receiver interval [i * 2^(d-l), (i+1) * 2^(d-l))
        node, col = np.divmod(inner, n_times)
        label, node = np.divmod(node, n_inner)
        level = np.searchsorted(self._level_start, node, side="right") - 1
        span = self.n_receivers >> level
        first = (node - self._level_start[level]) * span
        first += label * self.n_receivers
        ends = np.cumsum(span)
        shared = np.repeat(first, span)
        shared += np.arange(ends[-1])
        shared -= np.repeat(ends - span, span)
        shared *= n_times
        shared += np.repeat(col, span)
        # a receiver under two dropping nodes loses the packet once
        cells = np.concatenate((leaves, shared))
        cells.sort()
        distinct = np.ones(cells.size, dtype=bool)
        np.not_equal(cells[1:], cells[:-1], out=distinct[1:])
        return cells[distinct]

    def marginal_loss_probability(self) -> np.ndarray:
        return np.full(self.n_receivers, self.p)

    def to_spec(self) -> dict:
        return {"kind": "fbt", "depth": self.depth, "p": self.p}

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FullBinaryTreeLoss(d={self.depth}, p={self.p})"


class ScriptedLoss(LossModel):
    """Deterministic loss from an explicit schedule (testing aid).

    ``schedule`` is a boolean ``(R, T)`` matrix; the j-th transmission
    (regardless of its timestamp) uses column ``j``.  Transmissions beyond
    the schedule are lossless.  Sampling consumes columns statefully via
    :meth:`start`; the stateless :meth:`sample_at` starts a fresh cursor.

    This exists so protocol tests can force exact loss patterns — "the
    second parity is lost at receiver 3" — instead of fishing for seeds.
    """

    def __init__(self, schedule):
        schedule = np.asarray(schedule, dtype=bool)
        if schedule.ndim != 2:
            raise ValueError("schedule must be a 2-D (receivers, packets) matrix")
        super().__init__(schedule.shape[0])
        self.schedule = schedule

    def sample_at(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.start(rng).sample(times)

    def start(self, rng: np.random.Generator) -> "_ScriptedSampler":
        return _ScriptedSampler(self)

    def marginal_loss_probability(self) -> np.ndarray:
        if self.schedule.shape[1] == 0:
            return np.zeros(self.n_receivers)
        return self.schedule.mean(axis=1)

    def to_spec(self) -> dict:
        return {"kind": "scripted", "schedule": self.schedule.tolist()}


class _ScriptedSampler(LossSampler):
    def __init__(self, model: ScriptedLoss):
        super().__init__(model)
        self.model: ScriptedLoss = model
        self._cursor = 0

    def sample(self, times: np.ndarray) -> np.ndarray:
        times = self._check_forward(times)
        count = times.size
        out = np.zeros((self.model.n_receivers, count), dtype=bool)
        available = self.model.schedule.shape[1]
        take = max(0, min(count, available - self._cursor))
        if take:
            out[:, :take] = self.model.schedule[
                :, self._cursor: self._cursor + take
            ]
        self._cursor += count
        return out


class BurstyTreeLoss(LossModel):
    """Spatially *and* temporally correlated loss: Gilbert chains at nodes.

    The paper studies shared loss (Section 4.1) and burst loss (Section
    4.2) separately; real congested routers produce both at once.  This
    model runs an independent two-state Markov chain at every node of a
    full binary tree: while a node's chain is in the bad state the node
    drops every packet, so a congested interior router produces loss
    bursts shared by its whole subtree.

    Parameterisation mirrors :meth:`GilbertLoss.from_loss_and_burst`, with
    the per-node stationary loss chosen so the end-to-end rate is ``p``;
    the mean burst length applies at each node.
    """

    def __init__(
        self,
        depth: int,
        p: float,
        mean_burst_length: float = 2.0,
        packet_interval: float = 0.040,
    ):
        if depth < 0:
            raise ValueError(f"tree height must be >= 0, got {depth}")
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        super().__init__(2**depth)
        self.depth = depth
        self.p = p
        self.mean_burst_length = mean_burst_length
        self.packet_interval = packet_interval
        self.p_node = 1.0 - (1.0 - p) ** (1.0 / (depth + 1))
        self.n_nodes = 2 ** (depth + 1) - 1
        # one Gilbert process shared by all nodes' chains (they only need
        # the common rates; states are sampled per node)
        self._node_chain = GilbertLoss.from_loss_and_burst(
            self.n_nodes, self.p_node, mean_burst_length, packet_interval
        )

    def sample_at(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.start(rng).sample(times)

    def start(self, rng: np.random.Generator) -> "BurstyTreeSampler":
        return BurstyTreeSampler(self, rng)

    def marginal_loss_probability(self) -> np.ndarray:
        return np.full(self.n_receivers, self.p)

    def to_spec(self) -> dict:
        return {
            "kind": "bursty_tree",
            "depth": self.depth,
            "p": self.p,
            "mean_burst_length": self.mean_burst_length,
            "packet_interval": self.packet_interval,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"BurstyTreeLoss(d={self.depth}, p={self.p})"


class BurstyTreeSampler(LossSampler):
    """One realisation: per-node Gilbert chains propagated down the tree."""

    def __init__(self, model: BurstyTreeLoss, rng: np.random.Generator):
        super().__init__(model)
        self.model: BurstyTreeLoss = model
        self._node_sampler = model._node_chain.start(rng)

    def sample(self, times: np.ndarray) -> np.ndarray:
        times = self._check_forward(times)
        node_bad = self._node_sampler.sample(times)  # (n_nodes, T)
        # level-order layout: node 0 is the root, children of i are 2i+1/2i+2
        survive = ~node_bad[0:1]
        offset = 1
        for level in range(1, self.model.depth + 1):
            width = 2**level
            level_ok = ~node_bad[offset: offset + width]
            survive = np.repeat(survive, 2, axis=0) & level_ok
            offset += width
        return ~survive


class TreeLoss(_MemorylessLoss):
    """Shared loss on an arbitrary multicast tree.

    Parameters
    ----------
    tree:
        A ``networkx.DiGraph`` that is an out-tree rooted at ``source``.
    source:
        Root node (the sender).
    receivers:
        The receiver nodes, in the order receiver indices should follow.
        Defaults to the leaves of the tree in sorted order.
    node_loss:
        Either a scalar loss probability applied to every node, or a mapping
        ``node -> probability``.  As in the FBT model, a loss at a node
        affects its entire subtree (the node itself included; set the
        source's probability to 0 to model a loss-free sender).
    """

    def __init__(self, tree, source, receivers=None, node_loss=0.01):
        import networkx as nx

        if not nx.is_arborescence(tree):
            raise ValueError("tree must be an arborescence (rooted out-tree)")
        if source not in tree:
            raise ValueError(f"source {source!r} not in tree")
        if next(iter(nx.topological_sort(tree))) != source:
            raise ValueError(f"{source!r} is not the root of the tree")
        if receivers is None:
            receivers = sorted(
                node for node in tree if tree.out_degree(node) == 0
            )
        receivers = list(receivers)
        super().__init__(len(receivers))
        self.tree = tree
        self.source = source
        self.receivers = receivers

        self._order = list(nx.topological_sort(tree))
        self._index = {node: i for i, node in enumerate(self._order)}
        self._parent = np.full(len(self._order), -1, dtype=np.int64)
        for node in self._order:
            for child in tree.successors(node):
                self._parent[self._index[child]] = self._index[node]
        if np.isscalar(node_loss):
            self._node_p = np.full(len(self._order), float(node_loss))
        else:
            self._node_p = np.array(
                [float(node_loss[node]) for node in self._order]
            )
        if np.any((self._node_p < 0) | (self._node_p >= 1)):
            raise ValueError("node loss probabilities must be in [0, 1)")
        self._receiver_rows = np.array([self._index[r] for r in receivers])

    def _mask(self, n_times: int, rng: np.random.Generator) -> np.ndarray:
        n_nodes = len(self._order)
        survive = rng.random((n_nodes, n_times)) >= self._node_p[:, None]
        for i in range(1, n_nodes):  # topological order: parents first
            parent = self._parent[i]
            if parent >= 0:
                survive[i] &= survive[parent]
        return ~survive[self._receiver_rows]

    def _cells(self, n_times, rngs, labels):
        grid = self.n_receivers * n_times
        parts = [
            np.flatnonzero(self._mask(n_times, rng)) + label * grid
            for rng, label in zip(rngs, labels.tolist())
        ]
        return np.concatenate([np.empty(0, dtype=np.intp), *parts])

    def marginal_loss_probability(self) -> np.ndarray:
        out = np.empty(self.n_receivers)
        for j, row in enumerate(self._receiver_rows):
            survive = 1.0
            i = int(row)
            while i >= 0:
                survive *= 1.0 - self._node_p[i]
                i = int(self._parent[i])
            out[j] = 1.0 - survive
        return out

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"TreeLoss(R={self.n_receivers}, nodes={len(self._order)})"


#: spec ``kind`` -> rebuilder; see :meth:`LossModel.to_spec`
_SPEC_BUILDERS = {
    "bernoulli": lambda spec: BernoulliLoss(
        int(spec["n_receivers"]), float(spec["p"])
    ),
    "heterogeneous": lambda spec: HeterogeneousLoss(
        np.asarray(spec["probabilities"], dtype=float)
    ),
    "gilbert": lambda spec: GilbertLoss(
        int(spec["n_receivers"]),
        float(spec["rate_good_to_bad"]),
        float(spec["rate_bad_to_good"]),
    ),
    "fbt": lambda spec: FullBinaryTreeLoss(
        int(spec["depth"]), float(spec["p"])
    ),
    "bursty_tree": lambda spec: BurstyTreeLoss(
        int(spec["depth"]),
        float(spec["p"]),
        float(spec["mean_burst_length"]),
        float(spec["packet_interval"]),
    ),
    "scripted": lambda spec: ScriptedLoss(
        np.asarray(spec["schedule"], dtype=bool)
    ),
}

#: spec ``kind`` -> the exact set of parameter keys its builder reads.
#: ``loss_model_from_spec`` validates against this *before* calling the
#: builder, so a malformed spec always fails with a ``ValueError`` naming
#: the valid keys — never a bare ``KeyError`` from inside a lambda.
_SPEC_FIELDS = {
    "bernoulli": frozenset({"n_receivers", "p"}),
    "heterogeneous": frozenset({"probabilities"}),
    "gilbert": frozenset(
        {"n_receivers", "rate_good_to_bad", "rate_bad_to_good"}
    ),
    "fbt": frozenset({"depth", "p"}),
    "bursty_tree": frozenset(
        {"depth", "p", "mean_burst_length", "packet_interval"}
    ),
    "scripted": frozenset({"schedule"}),
}


def spec_kinds() -> tuple[str, ...]:
    """Every registered spec kind, sorted (the round-trippable models)."""
    return tuple(sorted(_SPEC_BUILDERS))


def loss_model_from_spec(spec: dict) -> LossModel:
    """Rebuild a loss model from its :meth:`LossModel.to_spec` dict.

    The round trip is exact: JSON preserves the defining float parameters
    bit-for-bit, so a rebuilt model samples identically to the original
    under the same rng stream — which is what lets the sharded Monte-Carlo
    engine promise bit-identical statistics across process boundaries.

    Every malformed spec raises ``ValueError`` — not a spec dict, unknown
    ``kind``, unknown parameter keys, or missing parameter keys — and the
    message always names the valid alternatives.
    """
    try:
        kind = spec["kind"]
    except (TypeError, KeyError):
        raise ValueError(
            f"not a loss-model spec: {spec!r}; "
            f"known kinds: {list(spec_kinds())}"
        ) from None
    if kind not in _SPEC_BUILDERS:
        raise ValueError(
            f"unknown loss-model kind {kind!r}; "
            f"known: {list(spec_kinds())}"
        )
    fields = _SPEC_FIELDS[kind]
    given = set(spec) - {"kind"}
    unknown = given - fields
    if unknown:
        raise ValueError(
            f"unknown key(s) {sorted(unknown)} for loss-model kind "
            f"{kind!r}; valid keys: {sorted(fields)}"
        )
    missing = fields - given
    if missing:
        raise ValueError(
            f"missing key(s) {sorted(missing)} for loss-model kind "
            f"{kind!r}; valid keys: {sorted(fields)}"
        )
    return _SPEC_BUILDERS[kind](spec)
