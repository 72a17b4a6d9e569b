"""Sharded, streaming, parallel execution layer for the MC simulators.

Every Monte-Carlo estimate in the tree is a :func:`run_sharded` call (the
``simulate_*`` functions are its fixed-count spellings).  It runs the
chunk kernels as **shard-parallel streaming jobs** with three guarantees:

* **Deterministic seed trees.**  Replication ``i`` of a run rooted at seed
  ``s`` always draws from ``SeedSequence(s, spawn_key=(i,))`` — a private,
  statistically independent stream addressed by *replication index*, not
  by worker or shard, and derived a chunk at a time in one vectorised
  pass rather than one ``SeedSequence`` per replication.  Together with
  the exact accumulator below, one root seed yields bit-identical
  ``(mean, stderr, replications)`` for any ``(shards, chunk_size, jobs)``
  split, any completion order, and ``jobs=1`` versus ``jobs>1``.
* **Streaming moments.**  Shards fold samples into
  :class:`~repro.mc.streaming.StreamingMoments` (exact, mergeable) instead
  of shipping sample vectors: memory is O(chunk) per worker and O(1) in
  the parent, however many replications run.
* **Pooled fan-out.**  ``jobs > 1`` sends the same chunks to one spawned
  :class:`~concurrent.futures.ProcessPoolExecutor` per call.  A chunk's
  samples depend only on its replication indices, so where it runs cannot
  move a bit; a chunk that fails raises, and no partial estimate is ever
  returned.

**Adaptive stopping** (``target_ci=``) runs chunks until the 95% CI
half-width of the running estimate drops to the target or the replication
cap is hit.  The rule is evaluated on *prefix-complete* chunk sequences in
index order, so the stopped replication count is deterministic for a given
``(root seed, chunk_size, target_ci, cap)`` — independent of ``jobs`` and
of worker completion order.  (It does depend on ``chunk_size``: stopping
can only happen at chunk boundaries.)

Loss models cross the process boundary as JSON specs
(:meth:`repro.sim.loss.LossModel.to_spec`); a model without a spec (e.g.
``TreeLoss``) still works in-process with ``jobs=1``.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.mc import integrated, layered, nofec
from repro.mc._common import MCResult, PAPER_TIMING, Timing
from repro.mc.streaming import StreamingMoments
from repro.sim.loss import LossModel, loss_model_from_spec

__all__ = [
    "SIMULATORS",
    "ShardedSimulator",
    "replication_rng",
    "root_sequence",
    "run_sharded",
    "shard_cell",
]

#: Default replications per chunk when ``chunk_size`` is not given and
#: adaptive stopping is on.  Must not depend on ``jobs`` — the stopped
#: replication count is part of the deterministic contract.
_ADAPTIVE_CHUNK = 64
#: Fixed-count runs default to ~this many chunks per worker (load balance
#: without per-chunk spawn overhead); chunking cannot affect fixed-count
#: statistics, so a jobs-dependent default is safe there.
_CHUNKS_PER_JOB = 4


@dataclass(frozen=True)
class ShardedSimulator:
    """One MC estimator as the sharded engine sees it.

    ``kernel`` is the chunk-shaped sampling function
    (``kernel(loss_model, timing, rngs, **params) -> np.ndarray``);
    ``param_names`` the exact parameter keys it requires.
    """

    name: str
    kernel: Callable[..., np.ndarray]
    param_names: tuple[str, ...] = ()
    optional_params: tuple[str, ...] = ()

    def validate_params(self, params: dict) -> dict:
        params = dict(params or {})
        missing = [key for key in self.param_names if key not in params]
        if missing:
            raise ValueError(
                f"simulator {self.name!r} requires params {missing}"
            )
        allowed = set(self.param_names) | set(self.optional_params)
        unknown = [key for key in params if key not in allowed]
        if unknown:
            raise ValueError(
                f"simulator {self.name!r} got unknown params {unknown}; "
                f"accepts {sorted(allowed)}"
            )
        for key in _COUNT_PARAMS.intersection(params):
            value = params[key]
            # a bool is an int to Python; a float, even 2.0, is refused
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(
                    f"simulator {self.name!r} param {key!r} must be an "
                    f"integer, got {value!r}"
                )
        return params


#: Parameters that count packets: integers, never a bool or a float.
_COUNT_PARAMS = frozenset({"k", "h", "initial_parities"})


#: Every MC simulator, addressable by name (figure runners, CLI, tests).
SIMULATORS: dict[str, ShardedSimulator] = {
    spec.name: spec
    for spec in [
        ShardedSimulator("nofec", nofec.sample_chunk),
        # an optional codec is the *name* "rse" so the parameter
        # survives the spawn boundary as plain data
        ShardedSimulator(
            "layered", layered.sample_chunk, ("k", "h"), ("codec",)
        ),
        ShardedSimulator(
            "integrated_immediate",
            integrated.sample_chunk_immediate,
            ("k",),
            ("initial_parities", "codec"),
        ),
        ShardedSimulator(
            "integrated_rounds",
            integrated.sample_chunk_rounds,
            ("k",),
            ("initial_parities", "codec"),
        ),
    ]
}


# ----------------------------------------------------------------------
# seed trees
# ----------------------------------------------------------------------
def root_sequence(
    rng: np.random.SeedSequence | np.random.Generator | int | None,
) -> np.random.SeedSequence:
    """Normalise any seed-ish input to the root of the replication tree."""
    if isinstance(rng, np.random.SeedSequence):
        return rng
    if isinstance(rng, np.random.Generator):
        # a live generator cannot be shipped to workers; draw one entropy
        # value from it (deterministic given its state) and root there
        return np.random.SeedSequence(int(rng.integers(2**63 - 1)))
    if rng is None:
        return np.random.SeedSequence()
    return np.random.SeedSequence(int(rng))


def replication_rng(
    entropy, spawn_key: Sequence[int], index: int
) -> np.random.Generator:
    """The private generator of replication ``index`` under a root.

    It is ``default_rng(SeedSequence(entropy, spawn_key=(*spawn_key,
    index)))`` state for state, addressed by random access, so a worker
    holding replications ``[a, b)`` derives its streams without
    materialising the first ``a`` children.  Each call mixes the root's
    shared words again; ``run_sharded`` derives a whole chunk at once.
    """
    return next(_chunk_rngs(entropy, spawn_key, index, 1))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): every
# replication of a root shares the words of (entropy, spawn_key), and the
# hash constants advance the same way whatever the words are, so the
# shared prefix is mixed once and only the index words are mixed per row.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value) -> list[int]:
    """numpy's ``_coerce_to_uint32_array`` for ints and nested sequences."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError(f"expected non-negative integer, got {value}")
        words = [value & _MASK32]
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
        return words
    if isinstance(value, (str, bytes)):
        # a one-character string iterates to itself
        raise TypeError(f"seed words must be integers, got {value!r}")
    return [word for item in value for word in _uint32_words(item)]


def _const_run(const: int, mult: int, count: int) -> np.ndarray:
    """``count`` successive hash constants from ``const``, as a column."""
    consts = []
    for _ in range(count):
        consts.append(const)
        const = const * mult & _MASK32
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(value, const, mult: int = _MULT_A):
    """numpy's ``hashmix`` given the constant before its update; on ints,
    or on uint32 arrays, which wrap as the C code does."""
    value = (value ^ const) * (const * mult & _MASK32) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    """numpy's ``mix`` of two pool words; on ints or uint32 arrays."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _mixed_prefix(entropy, spawn_key: Sequence[int]) -> tuple[list[int], int]:
    """The pool and hash constant after the words every child shares.

    A child always has a spawn key, so its entropy is zero-padded to the
    pool size; padding words mix exactly as the pool's own zero fill.
    """
    words = _uint32_words(entropy)
    words += [0] * (_POOL_SIZE - len(words))
    words += _uint32_words(spawn_key)
    const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        pool.append(_hashmix(word, const))
        const = const * _MULT_A & _MASK32
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
                const = const * _MULT_A & _MASK32
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, const))
            const = const * _MULT_A & _MASK32
    return pool, const


def _pcg64_seeds(pool: list[int], const: int, index_words: list) -> np.ndarray:
    """``generate_state(4, uint64)`` of each child, one row per child.

    ``index_words`` are the children's trailing words, each a uint32
    vector (one entry per child) or an int they share.
    """
    mixer = np.array(pool, dtype=np.uint32)[:, None]
    for word in index_words:
        consts = _const_run(const, _MULT_A, _POOL_SIZE + 1)
        mixer = _mix(mixer, _hashmix(word, consts[:-1]))
        const = int(consts[-1, 0])
    state = _hashmix(  # eight words, cycling through the pool
        mixer[[0, 1, 2, 3, 0, 1, 2, 3]],
        _const_run(_INIT_B, _MULT_B, 2 * _POOL_SIZE),
        _MULT_B,
    )
    # numpy reads the words little-endian whatever the host's order is
    rows = np.ascontiguousarray(state.T, dtype="<u4")
    return rows.view("<u8").astype(np.uint64)


class _ReplicationSeed:
    """``SeedSequence(entropy, spawn_key)`` with its PCG64 seed precomputed.

    PCG64 takes the precomputed words once; every other use (``spawn``,
    ``pool``, ``state``, a second ``generate_state``) goes to the real
    ``SeedSequence``, built on first need.  :func:`_chunk_rngs` registers
    it as numpy's ``ISpawnableSeedSequence``.
    """

    def __init__(self, entropy, spawn_key: tuple, seed: np.ndarray):
        self.entropy = entropy
        self.spawn_key = spawn_key
        self._seed = seed
        self._sequence = None

    def _seed_sequence(self) -> np.random.SeedSequence:
        if self._sequence is None:
            self._sequence = np.random.SeedSequence(
                self.entropy, spawn_key=self.spawn_key
            )
        return self._sequence

    def generate_state(self, n_words, dtype=np.uint32):
        if self._seed is not None and n_words == 4 and dtype is np.uint64:
            seed, self._seed = self._seed, None
            return seed
        return self._seed_sequence().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._seed_sequence().spawn(n_children)

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._seed_sequence(), name)


def _chunk_rngs(
    entropy, spawn_key: Sequence[int], start: int, count: int
) -> Iterator[np.random.Generator]:
    """Generators of replications ``[start, start + count)``, derived in
    one vectorised pass when the first is asked for."""
    start, stop = int(start), int(start) + int(count)
    if stop <= start:
        return
    if start < 0:
        raise ValueError(f"replication index must be >= 0, got {start}")
    # registered here, not subclassed at import, so that importing this
    # module does not import numpy.random; registering again is a no-op
    np.random.bit_generator.ISpawnableSeedSequence.register(_ReplicationSeed)
    spawn_key = tuple(spawn_key)
    pool, const = _mixed_prefix(entropy, spawn_key)
    while start < stop:
        # one block of 2**32 indices at a time: its high words are shared
        high = start >> 32
        block_stop = min(stop, (high + 1) << 32)
        low = np.arange(block_stop - start, dtype=np.uint32) + (start & _MASK32)
        seeds = _pcg64_seeds(
            pool, const, [low, *(_uint32_words(high) if high else [])]
        )
        for index, seed in zip(range(start, block_stop), seeds):
            yield np.random.Generator(
                np.random.PCG64(
                    _ReplicationSeed(entropy, (*spawn_key, index), seed)
                )
            )
        start = block_stop


# ----------------------------------------------------------------------
# the worker cell (runs inside a spawned pool worker)
# ----------------------------------------------------------------------
def shard_cell(
    *,
    simulator: str,
    model: dict,
    params: dict,
    entropy,
    spawn_key: list,
    start: int,
    count: int,
    timing: dict,
) -> dict:
    """Run replications ``[start, start + count)`` and return exact moments.

    This is what a pool worker runs for one chunk; every argument is plain
    data so it crosses the spawn boundary as is.  The return value is
    :meth:`StreamingMoments.to_json` — O(1) size however large the chunk.
    """
    spec = SIMULATORS[simulator]
    loss_model = loss_model_from_spec(model)
    with obs.span("mc.shard", simulator=simulator, start=start, count=count) as timer:
        samples = spec.kernel(
            loss_model,
            Timing(**timing),
            _chunk_rngs(entropy, spawn_key, start, count),
            **spec.validate_params(params),
        )
    _observe_chunk(simulator, count, timer.elapsed)
    moments = StreamingMoments()
    moments.update_many(samples)
    return moments.to_json()


def _observe_chunk(simulator: str, count: int, elapsed: float) -> None:
    """Per-chunk telemetry: replication counter + throughput peak.

    ``mc.replications`` counts replications *computed* (inline and worker
    paths alike), so fixed-count runs report identical totals for any
    ``jobs``; with adaptive stopping, ``jobs > 1`` legitimately computes
    discarded overshoot chunks beyond the stop point, which this counter
    makes visible.
    """
    if not obs.is_enabled():
        return
    obs.counter("mc.replications", simulator=simulator).inc(count)
    obs.counter("mc.chunks", simulator=simulator).inc()
    if elapsed > 0:
        obs.gauge(
            "mc.shard_replications_per_second", simulator=simulator
        ).observe(count / elapsed)


# ----------------------------------------------------------------------
# planning + folding
# ----------------------------------------------------------------------
def _plan_chunks(
    replications: int, chunk_size: int | None, jobs: int, adaptive: bool
) -> list[tuple[int, int]]:
    """Split ``replications`` into ``(start, count)`` chunks."""
    if chunk_size is None:
        if adaptive:
            chunk_size = _ADAPTIVE_CHUNK
        else:
            chunk_size = max(
                1, math.ceil(replications / (jobs * _CHUNKS_PER_JOB))
            )
    return [
        (start, min(chunk_size, replications - start))
        for start in range(0, replications, chunk_size)
    ]


def _ci_reached(moments: StreamingMoments, target_ci: float | None) -> bool:
    if target_ci is None or moments.count < 2:
        return False
    halfwidth = 1.96 * moments.stderr
    return halfwidth <= target_ci  # NaN stderr compares False: keep going


# ----------------------------------------------------------------------
# the public API
# ----------------------------------------------------------------------
def run_sharded(
    simulator: str,
    loss_model: LossModel,
    *,
    params: dict | None = None,
    replications: int = 512,
    chunk_size: int | None = None,
    jobs: int = 1,
    target_ci: float | None = None,
    rng: np.random.SeedSequence | np.random.Generator | int | None = 0,
    timing: Timing = PAPER_TIMING,
) -> MCResult:
    """Sharded, streaming Monte-Carlo estimate of E[M].

    Parameters
    ----------
    simulator:
        A :data:`SIMULATORS` name: ``"nofec"``, ``"layered"``,
        ``"integrated_immediate"`` or ``"integrated_rounds"``.
    loss_model:
        Any joint loss process.  With ``jobs > 1`` it must round-trip
        through :meth:`~repro.sim.loss.LossModel.to_spec`.
    params:
        Simulator parameters (e.g. ``{"k": 7, "h": 1}`` for layered).
    replications:
        Replication count — exact when ``target_ci`` is None, otherwise
        the cap the adaptive rule runs up to.
    chunk_size:
        Replications per dispatched chunk.  Fixed-count statistics are
        *identical for every chunking* (exact merge); with ``target_ci``
        set, stopping happens at chunk boundaries, so the default is a
        jobs-independent constant to keep stopped counts deterministic.
    jobs:
        ``1`` runs chunks inline; ``N > 1`` fans chunks out to a pool of
        up to ``N`` spawned worker processes.  Identical results either
        way.
    target_ci:
        Optional 95% CI half-width target: stop as soon as the running
        estimate is at least this tight (checked at chunk boundaries, in
        chunk order).
    rng:
        Root of the seed tree: an int seed, a ``SeedSequence``, None
        (fresh entropy) or a ``Generator`` (one entropy draw is taken).
    """
    try:
        spec = SIMULATORS[simulator]
    except KeyError:
        raise ValueError(
            f"unknown simulator {simulator!r}; known: {sorted(SIMULATORS)}"
        ) from None
    params = spec.validate_params(params or {})
    if replications < 1:
        raise ValueError("need at least one replication")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if target_ci is not None and not target_ci > 0:
        raise ValueError(f"target_ci must be positive, got {target_ci}")

    root = root_sequence(rng)
    chunks = _plan_chunks(
        replications, chunk_size, jobs, adaptive=target_ci is not None
    )
    if jobs == 1:
        return _run_inline(spec, loss_model, params, chunks, root, timing, target_ci)
    return _run_fanout(
        spec, loss_model, params, chunks, root, timing, target_ci, jobs
    )


def _run_inline(
    spec: ShardedSimulator,
    loss_model: LossModel,
    params: dict,
    chunks: list[tuple[int, int]],
    root: np.random.SeedSequence,
    timing: Timing,
    target_ci: float | None,
) -> MCResult:
    """Single-process path: same chunks, same seeds, no worker processes."""
    moments = StreamingMoments()
    for start, count in chunks:
        with obs.span(
            "mc.shard", simulator=spec.name, start=start, count=count
        ) as timer:
            samples = spec.kernel(
                loss_model,
                timing,
                _chunk_rngs(root.entropy, root.spawn_key, start, count),
                **params,
            )
        _observe_chunk(spec.name, count, timer.elapsed)
        moments.update_many(samples)
        if _ci_reached(moments, target_ci):
            break
    return moments.result()


def _run_fanout(
    spec: ShardedSimulator,
    loss_model: LossModel,
    params: dict,
    chunks: list[tuple[int, int]],
    root: np.random.SeedSequence,
    timing: Timing,
    target_ci: float | None,
    jobs: int,
) -> MCResult:
    """Process-parallel path: the same chunks over one spawned pool."""
    try:
        model_spec = loss_model.to_spec()
    except NotImplementedError as exc:
        raise ValueError(
            f"{type(loss_model).__name__} cannot cross the process "
            f"boundary ({exc}); run with jobs=1"
        ) from None
    cell = functools.partial(
        _pool_cell,
        # workers inherit this process's telemetry switch; their snapshots
        # merge here, so the rollup looks exactly like an inline run's
        # (modulo wall-clock histograms)
        obs.is_enabled(),
        simulator=spec.name,
        model=model_spec,
        params=params,
        entropy=root.entropy,
        spawn_key=list(root.spawn_key),
        timing={
            "packet_interval": timing.packet_interval,
            "round_gap": timing.round_gap,
        },
    )
    moments = StreamingMoments()
    # Fixed-count runs dispatch everything at once; adaptive runs go in
    # waves of `jobs` chunks so a tight CI stops after bounded overshoot.
    wave_size = len(chunks) if target_ci is None else jobs
    pool = ProcessPoolExecutor(
        min(jobs, len(chunks)), mp_context=multiprocessing.get_context("spawn")
    )
    try:
        for first in range(0, len(chunks), wave_size):
            futures = []
            for start, count in chunks[first : first + wave_size]:
                if obs.is_enabled():
                    # the perf ledger reads this as mc.fanout_spawns
                    obs.counter("campaign.attempts").inc()
                futures.append(pool.submit(cell, start=start, count=count))
            results = [future.result() for future in futures]
            for _, metrics in results:
                if metrics is not None:
                    obs.merge_snapshot(obs.MetricsSnapshot.from_json(metrics))
            for chunk_json, _ in results:
                moments.merge(StreamingMoments.from_json(chunk_json))
                # evaluate the stop rule at every chunk boundary in index
                # order; chunks computed beyond the stop point are discarded
                # so the stopped count never depends on jobs or wave size
                if _ci_reached(moments, target_ci):
                    return moments.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return moments.result()


def _pool_cell(capture: bool, **cell) -> tuple[dict, dict | None]:
    """:func:`shard_cell` in a pool worker, plus the chunk's telemetry
    snapshot when ``capture`` is on."""
    if not capture:
        return shard_cell(**cell), None
    with obs.capture():
        return shard_cell(**cell), obs.snapshot().to_json()
