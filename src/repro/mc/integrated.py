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

Bookkeeping: the kernels consume loss *coordinates*
(:meth:`repro.sim.loss.LossSampler.losses`), never the ``(R, T)`` matrix.
Per-receiver loss counts are ``np.bincount(rows, minlength=R)``;
integrated FEC 2 tracks each receiver's ``missing`` directly, and
integrated FEC 1 follows only the receivers still short of ``k`` and does
column arithmetic only for those that lost something in the current
16-parity chunk -- a followed receiver with a clean chunk finishes at
column ``need - 1``.  With a memoryless loss model a replication therefore
costs its losses, not its ``R x T`` cells, which is what puts the paper's
10^6 receivers inside simulation range; a stateful model's coordinates are
the ``np.nonzero`` of the matrix it draws, so the same kernels serve it.
A repair round is capped at ``_MAX_TRANSMISSIONS = 10**6``.  What is drawn,
and in what order, is pinned by ``tests/unit/test_mc_pinned_samples.py``
(DESIGN.md section 11.5).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.fec.code import ErasureCode
from repro.fec.registry import create_codec, get_codec
from repro.mc._common import MCResult, PAPER_TIMING, PayloadVerifier, Timing
from repro.sim.loss import LossModel, LossSampler

__all__ = [
    "simulate_integrated_immediate",
    "simulate_integrated_rounds",
    "sample_chunk_immediate",
    "sample_chunk_rounds",
]

_MAX_TRANSMISSIONS = 1_000_000
_PARITY_CHUNK = 16


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


def _first_burst_shortfall(
    sampler: LossSampler,
    times: np.ndarray,
    initial_parities: int,
    verifier: PayloadVerifier | None,
) -> np.ndarray:
    """Packets each receiver is short of ``k`` after the first burst.

    Its first-burst losses, less the parities the burst already carried;
    ``<= 0`` means done.
    """
    n_receivers = sampler.model.n_receivers
    rows, cols = sampler.losses(times)
    if verifier is not None:
        # integrated FEC sends fresh parities without bound, but the
        # first burst maps directly onto one codec block — replay those
        # erasure patterns through the real cache-backed decode path
        received = np.ones((n_receivers, times.size), dtype=bool)
        received[rows, cols] = False
        verifier.verify_masks(received)
    return np.bincount(rows, minlength=n_receivers) - initial_parities


def _immediate_replication(
    loss_model: LossModel,
    k: int,
    timing: Timing,
    offsets: np.ndarray,
    rng: np.random.Generator,
    initial_parities: int = 0,
    verifier: PayloadVerifier | None = None,
) -> float:
    sampler = loss_model.start(rng)

    first_burst = k + initial_parities
    times = offsets[:first_burst]
    need = _first_burst_shortfall(sampler, times, initial_parities, verifier)
    active = np.flatnonzero(need > 0)  # ascending, and stays so
    if active.size == 0:
        return first_burst / k
    need = need[active]

    sent = first_burst
    base = float(times[-1]) + timing.packet_interval
    while sent < _MAX_TRANSMISSIONS:
        times = base + offsets[:_PARITY_CHUNK]
        # the draw covers every receiver (one realisation of the process);
        # only the receivers still short of k are followed through it
        rows, cols = sampler.losses(times)
        slot = np.searchsorted(active, rows)
        np.minimum(slot, active.size - 1, out=slot)
        followed = active[slot] == rows
        slot, cols = slot[followed], cols[followed]
        received = _PARITY_CHUNK - np.bincount(slot, minlength=active.size)
        finished = received >= need
        if finished.all():
            # Everyone finishes within this chunk.  The sender (idealised:
            # it stops the instant the last receiver completes) only sends
            # up to the worst receiver's completing column: ``need - 1``
            # where the chunk was clean, later where it was not.
            needed = int(need.max())
            if slot.size:
                lossy = np.flatnonzero(received < _PARITY_CHUNK)
                got = np.ones((lossy.size, _PARITY_CHUNK), dtype=bool)
                got[np.searchsorted(lossy, slot), cols] = False
                done_at = np.cumsum(got, axis=1) >= need[lossy, None]
                needed = max(needed, int(done_at.argmax(axis=1).max()) + 1)
            return (sent + needed) / k
        unfinished = ~finished
        active = active[unfinished]
        need = (need - received)[unfinished]
        sent += _PARITY_CHUNK
        base = float(times[-1]) + timing.packet_interval
    raise RuntimeError("integrated FEC 1 did not complete within budget")


def _rounds_replication(
    loss_model: LossModel,
    k: int,
    timing: Timing,
    offsets: np.ndarray,
    rng: np.random.Generator,
    initial_parities: int = 0,
    verifier: PayloadVerifier | None = None,
) -> float:
    sampler = loss_model.start(rng)

    first_burst = k + initial_parities
    times = offsets[:first_burst]
    missing = _first_burst_shortfall(sampler, times, initial_parities, verifier)
    sent = first_burst
    base = float(times[-1]) + timing.packet_interval + timing.round_gap
    while True:
        worst = int(missing.max())
        if worst <= 0:
            return sent / k
        if sent + worst > _MAX_TRANSMISSIONS:
            raise RuntimeError("integrated FEC 2 did not complete within budget")
        times = base + offsets[:worst]
        rows, _ = sampler.losses(times)
        # parities are all-new, so every one received (worst - lost) counts
        # toward k; a receiver already done stays done
        np.maximum(missing, 0, out=missing)
        missing -= worst
        missing += np.bincount(rows, minlength=missing.size)
        sent += worst
        base = float(times[-1]) + timing.packet_interval + timing.round_gap


def _first_burst_verifier(
    codec: ErasureCode | str | None,
    k: int,
    initial_parities: int,
) -> PayloadVerifier | None:
    """Build the opt-in payload verifier for the integrated kernels.

    Integrated FEC keeps sending *fresh* parities for as long as any
    receiver is missing packets, so the tail of the transmission has no
    fixed block length; only the first burst (``k`` data packets plus
    ``initial_parities`` parities) maps onto a single codec block.  The
    verifier therefore replays first-burst erasure patterns only.

    ``codec`` is a live instance with at least ``initial_parities``
    parities, or a registry name (the form that crosses the sharded
    engine's process boundary), built at the codec's supported parity
    count nearest ``initial_parities``.
    """
    if codec is None:
        return None
    if isinstance(codec, str):
        h = get_codec(codec).nearest_h(k, initial_parities)
        codec = create_codec(codec, k, h)
    if codec.k != k:
        raise ValueError(
            f"codec geometry (k={codec.k}) does not match the simulated "
            f"block (k={k})"
        )
    if initial_parities > codec.h:
        raise ValueError(
            f"first burst carries {initial_parities} parities but the codec "
            f"only encodes h={codec.h}"
        )
    # dedicated payload RNG: drawing the reference block from the
    # simulation's stream would perturb the loss samples, making the
    # codec-verified run statistically different from the plain one
    return PayloadVerifier(codec, rng=np.random.default_rng(0x5EED))


def _validate_integrated(k: int, initial_parities: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if initial_parities < 0:
        raise ValueError("initial_parities must be >= 0")


def sample_chunk_immediate(
    loss_model: LossModel,
    timing: Timing,
    rngs: Iterable[np.random.Generator],
    *,
    k: int,
    initial_parities: int = 0,
    codec: ErasureCode | str | None = None,
) -> np.ndarray:
    """Chunk-shaped kernel for integrated FEC 1 (continuous parity tail).

    One E[M] sample per rng in ``rngs``; see
    :func:`repro.mc.layered.sample_chunk` for the sharding contract.
    ``codec`` (optional) payload-verifies the first-burst erasure
    patterns (:func:`_first_burst_verifier`); statistics are unchanged.
    """
    _validate_integrated(k, initial_parities)
    verifier = _first_burst_verifier(codec, k, initial_parities)
    offsets = _packet_offsets(timing, k, initial_parities)
    return np.array(
        [
            _immediate_replication(
                loss_model, k, timing, offsets, rng, initial_parities, verifier
            )
            for rng in rngs
        ],
        dtype=float,
    )


def sample_chunk_rounds(
    loss_model: LossModel,
    timing: Timing,
    rngs: Iterable[np.random.Generator],
    *,
    k: int,
    initial_parities: int = 0,
    codec: ErasureCode | str | None = None,
) -> np.ndarray:
    """Chunk-shaped kernel for integrated FEC 2 (NAK-driven parity rounds).

    ``codec`` as in :func:`sample_chunk_immediate`.
    """
    _validate_integrated(k, initial_parities)
    verifier = _first_burst_verifier(codec, k, initial_parities)
    offsets = _packet_offsets(timing, k, initial_parities)
    return np.array(
        [
            _rounds_replication(
                loss_model, k, timing, offsets, rng, initial_parities, verifier
            )
            for rng in rngs
        ],
        dtype=float,
    )


def simulate_integrated_immediate(
    loss_model: LossModel,
    k: int,
    replications: int = 200,
    timing: Timing = PAPER_TIMING,
    rng: np.random.SeedSequence | np.random.Generator | int | None = None,
    initial_parities: int = 0,
    codec: ErasureCode | str | None = None,
) -> MCResult:
    """Integrated FEC 1: continuous parity tail at rate ``1/Delta``.

    Exactly ``run_sharded("integrated_immediate", ...)`` at a fixed
    replication count: ``rng`` roots the replication seed tree.  ``codec``
    (optional) enables end-to-end payload verification of the first-burst
    erasure patterns through the real batched decode path — see
    :func:`_first_burst_verifier`; statistics are unchanged.
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
    codec: ErasureCode | str | None = None,
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
