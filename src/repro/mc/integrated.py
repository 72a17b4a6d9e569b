"""Monte-Carlo estimates of E[M] for **integrated FEC** under any loss model.

Two transmission schemes from Section 4.2 (Figure 13):

* :func:`simulate_integrated_immediate` — "Integrated FEC 1": the sender
  streams the ``k`` data packets and then parities, all at ``Delta``
  spacing, until every receiver holds ``k`` packets of the block; receivers
  leave as soon as they are done.  No feedback rounds.  Under loss models
  without temporal correlation this is exactly the paper's idealised
  integrated-FEC lower bound (Equation 6), which is how Figure 12's shared
  -loss curves are produced.

* :func:`simulate_integrated_rounds` — "Integrated FEC 2" / protocol NP's
  transmission pattern: after the data packets, NAK-driven rounds separated
  by ``Delta + T`` each carry ``max_r(missing_r)`` fresh parities.

Both count total packet transmissions for the group; E[M] = total / k.

Bookkeeping: a chunk's replications are stepped in lockstep.  Each keeps
its own generator and draws exactly what it would draw alone -- the same
loss-sampler calls, in the same order, at the same times -- through one
:meth:`repro.sim.loss.LossModel.start_many` realisation per group of
replications; only the arithmetic between the draws runs once per step for
the whole group.  The kernels consume the lost cells of the group's
realisations stacked ``replication * R + receiver``
(:meth:`~repro.sim.loss.LossChunk.cells`) and never form an ``(R, T)``
matrix, nor an ``(n, R)`` one across replications: their state is the
sorted sparse keys ``replication * R + receiver`` of the receivers still
short of ``k``, with how many packets each is short of.  Integrated FEC 2 draws a round's
parities for the replications that send the same ``worst`` together, so
every draw is rectangular; the open replications of integrated FEC 1 all
send the same 16-parity chunk, and a replication whose receivers all finish
within a chunk builds a ``lossy x 16`` block for the receivers that lost
something there -- a followed receiver with a clean chunk finishes at
column ``need - 1``.  With a memoryless loss model a replication costs its
losses, not its ``R x T`` cells, which is what puts the paper's 10^6
receivers inside simulation range; a stateful model's realisation steps one
sampler per replication, so the same kernels serve it.  A group's steps
hold at most about :data:`STEP_BYTES` (one replication a group at R =
10^6).  A repair round is capped at ``_MAX_TRANSMISSIONS = 10**6``.  What is
drawn, and in what order, is pinned by
``tests/unit/test_mc_pinned_samples.py``, and that stepping together draws
what stepping alone does by ``tests/unit/test_mc_lockstep.py``
(DESIGN.md section 11.5).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

import numpy as np

from repro.fec.rse import RSECodec
from repro.mc._common import (
    MCResult,
    PAPER_TIMING,
    PayloadVerifier,
    Timing,
    block_verifier,
)
from repro.sim.loss import LossChunk, LossModel

__all__ = [
    "simulate_integrated_immediate",
    "simulate_integrated_rounds",
    "sample_chunk_immediate",
    "sample_chunk_rounds",
]

_MAX_TRANSMISSIONS = 1_000_000
_PARITY_CHUNK = 16
#: Bound on the bytes of loss coordinates and walk state one lockstep
#: step holds: a chunk's replications are stepped in groups that fit.
STEP_BYTES = 1 << 21
#: Bytes a step holds per lost packet (geometric gaps, walk positions,
#: the three coordinates, the matching keys): ~40 measured, with slack.
_BYTES_PER_LOSS = 48


def _packet_offsets(timing: Timing, k: int, initial_parities: int) -> np.ndarray:
    """``i * Delta`` for every ``i`` a replication can ask for at once.

    Built once per chunk call and sliced per burst: the first burst is
    ``k + initial_parities`` packets, a parity chunk is ``_PARITY_CHUNK``
    and a repair round never exceeds the ``k`` a receiver can be short of.
    """
    return (
        np.arange(max(k + initial_parities, _PARITY_CHUNK))
        * timing.packet_interval
    )


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values in sorted ``keys``."""
    edge = np.ones(keys.size + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    return bounds[:-1], np.diff(bounds)


def _first_burst(
    chunk: LossChunk,
    n_replications: int,
    times: np.ndarray,
    initial_parities: int,
    verifier: PayloadVerifier | None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The receivers still short of ``k`` after the first burst.

    Returns ``(key, short, lost)``: ``key = replication * R + receiver``,
    ascending, and how many packets that receiver is short of -- its
    first-burst losses less the parities the burst carried -- for every
    receiver short of at least one; ``lost`` counts the burst's losses.
    """
    n_receivers = chunk.model.n_receivers
    cells = chunk.cells(
        np.arange(n_replications),
        np.broadcast_to(times, (n_replications, times.size)),
    )
    keys = cells // times.size
    if verifier is not None:
        # integrated FEC sends fresh parities without bound, but the
        # first burst maps directly onto one codec block — replay each
        # replication's erasure pattern, in chunk order, through the real
        # cache-backed decode path
        cols = cells - keys * times.size
        origins = np.arange(n_replications + 1) * n_receivers
        bounds = np.searchsorted(keys, origins)
        for origin, lo, hi in zip(origins, bounds[:-1], bounds[1:]):
            received = np.ones((n_receivers, times.size), dtype=bool)
            received[keys[lo:hi] - origin, cols[lo:hi]] = False
            verifier.verify_masks(received)
    del cells  # the burst's losses are the bulk of the step
    starts, short = _runs(keys)
    if initial_parities:
        short -= initial_parities
        followed = np.flatnonzero(short > 0)
        starts, short = starts[followed], short[followed]
    return keys[starts], short, keys.size


def _open_replications(
    keys: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The replications that still follow a receiver, where their keys
    start and how many they have; ``bounds`` are the group's
    ``replication * R``."""
    edges = np.searchsorted(keys, bounds)
    live = np.flatnonzero(edges[1:] > edges[:-1])
    return live, edges[live], edges[live + 1] - edges[live]


def _matched(keys: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index into ``keys`` of each loss that falls on a followed receiver,
    and the index of those losses.

    Selections here and in the kernels go through index arrays: a boolean
    mask with no pattern gathers several times slower than its indices.
    """
    slot = np.searchsorted(keys, rows)
    np.minimum(slot, keys.size - 1, out=slot)
    followed = np.flatnonzero(keys[slot] == rows)
    return slot[followed], followed


def _immediate_group(
    loss_model: LossModel,
    k: int,
    timing: Timing,
    offsets: np.ndarray,
    rngs: list[np.random.Generator],
    initial_parities: int,
    verifier: PayloadVerifier | None,
) -> tuple[np.ndarray, int]:
    """Integrated FEC 1 samples of one group, and its first-burst losses."""
    n_receivers = loss_model.n_receivers
    chunk = loss_model.start_many(rngs)
    first_burst = k + initial_parities
    times = offsets[:first_burst]
    keys, need, lost = _first_burst(
        chunk, len(rngs), times, initial_parities, verifier
    )
    # a replication with no receiver short of k is done after the burst
    samples = np.full(len(rngs), first_burst / k)

    bounds = np.arange(len(rngs) + 1) * n_receivers
    sent = first_burst
    base = float(times[-1]) + timing.packet_interval
    while keys.size:
        if sent >= _MAX_TRANSMISSIONS:
            raise RuntimeError("integrated FEC 1 did not complete within budget")
        # every open replication has sent the same packets, so one row of
        # times serves them all
        times = base + offsets[:_PARITY_CHUNK]
        live, starts, width = _open_replications(keys, bounds)
        # the draw covers every receiver (one realisation of the process);
        # only the receivers still short of k are followed through it
        rows, cols = chunk.losses(
            live, np.broadcast_to(times, (live.size, times.size))
        )
        slot, followed = _matched(keys, rows)
        cols = cols[followed]
        received = _PARITY_CHUNK - np.bincount(slot, minlength=keys.size)
        finished = received >= need
        still_open = np.logical_or.reduceat(~finished, starts)
        closing = np.repeat(~still_open, width)
        if closing.any():
            # A replication whose receivers all finish within this chunk:
            # the sender (idealised: it stops the instant the last receiver
            # completes) only sends up to the worst receiver's completing
            # column: ``need - 1`` where the chunk was clean, later where
            # it was not.
            done_at = need.copy()
            lossy = np.flatnonzero(closing & (received < _PARITY_CHUNK))
            if lossy.size:
                hits = np.flatnonzero(closing[slot])
                got = np.ones((lossy.size, _PARITY_CHUNK), dtype=bool)
                got[np.searchsorted(lossy, slot[hits]), cols[hits]] = False
                reached = np.cumsum(got, axis=1) >= need[lossy, None]
                done_at[lossy] = reached.argmax(axis=1) + 1
            needed = np.maximum.reduceat(done_at, starts)[~still_open]
            samples[live[~still_open]] = (sent + needed) / k
        keep = np.flatnonzero(~closing & ~finished)
        keys = keys[keep]
        need = (need - received)[keep]
        sent += _PARITY_CHUNK
        base = float(times[-1]) + timing.packet_interval
    return samples, lost


def _rounds_group(
    loss_model: LossModel,
    k: int,
    timing: Timing,
    offsets: np.ndarray,
    rngs: list[np.random.Generator],
    initial_parities: int,
    verifier: PayloadVerifier | None,
) -> tuple[np.ndarray, int]:
    """Integrated FEC 2 samples of one group, and its first-burst losses."""
    n_receivers = loss_model.n_receivers
    chunk = loss_model.start_many(rngs)
    first_burst = k + initial_parities
    times = offsets[:first_burst]
    keys, missing, lost = _first_burst(
        chunk, len(rngs), times, initial_parities, verifier
    )
    bounds = np.arange(len(rngs) + 1) * n_receivers
    sent = np.full(len(rngs), first_burst)
    base = np.full(
        len(rngs), float(times[-1]) + timing.packet_interval + timing.round_gap
    )
    sending = np.zeros(len(rngs), dtype=np.int64)  # this round's parities
    while keys.size:
        live, starts, width = _open_replications(keys, bounds)
        worst = np.maximum.reduceat(missing, starts)
        if (sent[live] + worst > _MAX_TRANSMISSIONS).any():
            raise RuntimeError("integrated FEC 2 did not complete within budget")
        sending[live] = worst
        # replications sending the same number of parities draw together,
        # so every draw is rectangular
        lost_rows = []
        for parities in sorted(set(worst.tolist())):
            group = live[worst == parities]
            times = base[group, None] + offsets[:parities]
            lost_rows.append(chunk.cells(group, times) // parities)
            sent[group] += parities
            base[group] = times[:, -1] + timing.packet_interval + timing.round_gap
        hits = np.concatenate(lost_rows)
        hits.sort()
        first, lost_now = _runs(hits)
        # parities are all-new, so every one received (worst - lost) counts
        # toward k; worst is the most any receiver of its replication was
        # short of, so a receiver stays short only if it lost more than
        # worst - missing of them: no more than the most anyone lost
        most = lost_now.max(initial=0)
        could = np.flatnonzero(missing > np.repeat(worst, width) - most)
        keys, missing = keys[could], missing[could]
        slot, found = _matched(keys, hits[first])
        missing = missing[slot] + lost_now[found] - sending[keys[slot] // n_receivers]
        keep = np.flatnonzero(missing > 0)
        keys, missing = keys[slot[keep]], missing[keep]
    return sent / k, lost


def _validate_integrated(k: int, initial_parities: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if initial_parities < 0:
        raise ValueError("initial_parities must be >= 0")


def _sample_chunk(
    group_kernel,
    loss_model: LossModel,
    timing: Timing,
    rngs: Iterable[np.random.Generator],
    k: int,
    initial_parities: int,
    codec: RSECodec | str | None,
) -> np.ndarray:
    """One sample per generator: the chunk's replications stepped in
    lockstep, in consecutive groups whose steps fit :data:`STEP_BYTES`.

    A group is sized by the losses per replication the groups before it
    drew, scaled to the widest step; until one has, by every packet of
    the widest step lost.
    """
    _validate_integrated(k, initial_parities)
    # only the first burst (k data packets plus initial_parities parities)
    # maps onto one codec block: the fresh-parity tail has no fixed length
    verifier = block_verifier(codec, k, initial_parities)
    offsets = _packet_offsets(timing, k, initial_parities)
    first_burst = k + initial_parities
    rngs = iter(rngs)
    samples = [np.empty(0)]
    per_replication = loss_model.n_receivers * offsets.size
    drawn = lost = 0
    while group := list(
        islice(rngs, max(1, STEP_BYTES // (_BYTES_PER_LOSS * per_replication)))
    ):
        group_samples, group_lost = group_kernel(
            loss_model, k, timing, offsets, group, initial_parities, verifier
        )
        samples.append(group_samples)
        drawn += len(group)
        lost += group_lost
        per_replication = lost * offsets.size // (drawn * first_burst) + offsets.size
    return np.concatenate(samples)


def sample_chunk_immediate(
    loss_model: LossModel,
    timing: Timing,
    rngs: Iterable[np.random.Generator],
    *,
    k: int,
    initial_parities: int = 0,
    codec: RSECodec | str | None = None,
) -> np.ndarray:
    """Chunk-shaped kernel for integrated FEC 1 (continuous parity tail).

    One E[M] sample per rng in ``rngs``; see
    :func:`repro.mc.layered.sample_chunk` for the sharding contract.
    ``codec`` (optional, as in :func:`repro.mc.layered.sample_chunk`)
    payload-verifies the first-burst erasure patterns; statistics are
    unchanged.
    """
    return _sample_chunk(
        _immediate_group, loss_model, timing, rngs, k, initial_parities, codec
    )


def sample_chunk_rounds(
    loss_model: LossModel,
    timing: Timing,
    rngs: Iterable[np.random.Generator],
    *,
    k: int,
    initial_parities: int = 0,
    codec: RSECodec | str | None = None,
) -> np.ndarray:
    """Chunk-shaped kernel for integrated FEC 2 (NAK-driven parity rounds).

    ``codec`` as in :func:`sample_chunk_immediate`.
    """
    return _sample_chunk(
        _rounds_group, loss_model, timing, rngs, k, initial_parities, codec
    )


def simulate_integrated_immediate(
    loss_model: LossModel,
    k: int,
    replications: int = 200,
    timing: Timing = PAPER_TIMING,
    rng: np.random.SeedSequence | np.random.Generator | int | None = None,
    initial_parities: int = 0,
    codec: RSECodec | str | None = None,
) -> MCResult:
    """Integrated FEC 1: continuous parity tail at rate ``1/Delta``.

    Exactly ``run_sharded("integrated_immediate", ...)`` at a fixed
    replication count: ``rng`` roots the replication seed tree.  ``codec``
    (optional) enables end-to-end payload verification of the first-burst
    erasure patterns through the real batched decode path; statistics are
    unchanged.
    """
    from repro.mc.sharded import run_sharded

    return run_sharded(
        "integrated_immediate",
        loss_model,
        params={"k": k, "initial_parities": initial_parities, "codec": codec},
        replications=replications,
        timing=timing,
        rng=rng,
    )


def simulate_integrated_rounds(
    loss_model: LossModel,
    k: int,
    replications: int = 200,
    timing: Timing = PAPER_TIMING,
    rng: np.random.SeedSequence | np.random.Generator | int | None = None,
    initial_parities: int = 0,
    codec: RSECodec | str | None = None,
) -> MCResult:
    """Integrated FEC 2: NAK-driven parity rounds spaced ``Delta + T``.

    Exactly ``run_sharded("integrated_rounds", ...)``; ``rng`` and
    ``codec`` as in :func:`simulate_integrated_immediate`.
    """
    from repro.mc.sharded import run_sharded

    return run_sharded(
        "integrated_rounds",
        loss_model,
        params={"k": k, "initial_parities": initial_parities, "codec": codec},
        replications=replications,
        timing=timing,
        rng=rng,
    )
