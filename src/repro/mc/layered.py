"""Monte-Carlo estimate of E[M] for **layered FEC** under any loss model.

Model (Sections 3.1 and 4.2): a transmission group of ``k`` data packets is
sent as an FEC block of ``n = k + h`` packets, back to back at ``Delta``
spacing.  A receiver recovers data packet ``i`` in a round iff it received
packet ``i`` itself or at least ``k`` packets of the block.  Packets not
recovered by every receiver are retransmitted in the next round — each
packet *keeping its place in the block* (the burst-loss convention of
Section 4.2) — with the rounds separated by ``Delta + T``.

The estimate of E[M] for a round is ``(n/k) * mean_i(rounds_i)`` where
``rounds_i`` is the number of rounds until all receivers recovered packet
``i`` — matching Equation (3)'s ``n/k`` bandwidth accounting.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.fec.rse import RSECodec
from repro.mc._common import (
    MCResult,
    PAPER_TIMING,
    PayloadVerifier,
    Timing,
    _row_counts,
    block_verifier,
)
from repro.sim.loss import LossModel

__all__ = ["simulate_layered", "sample_chunk"]

_MAX_ROUNDS = 100_000


def _validate_geometry(k: int, h: int) -> None:
    if k < 1 or h < 0:
        raise ValueError(f"need k >= 1 and h >= 0, got k={k}, h={h}")


def _one_replication(
    loss_model: LossModel,
    k: int,
    h: int,
    timing: Timing,
    offsets: np.ndarray,
    rng: np.random.Generator,
    verifier: PayloadVerifier | None = None,
) -> float:
    """One transmission group; ``offsets`` is ``i * Delta`` for ``i < k + h``."""
    n = k + h
    n_receivers = loss_model.n_receivers
    sampler = loss_model.start(rng)
    pending = np.ones((n_receivers, k), dtype=bool)  # r still missing packet i
    rounds_needed = np.zeros(k, dtype=np.int64)
    base = 0.0
    for round_index in range(1, _MAX_ROUNDS + 1):
        times = base + offsets
        lost = sampler.sample(times)  # (R, n)
        received = ~lost
        decodable = _row_counts(received) >= k  # (R,)
        if verifier is not None:
            # replay each distinct decodable pattern through the real
            # batched codec (cache-backed, so repeats cost a lookup)
            verifier.verify_masks(received)
        recovered = received[:, :k] | decodable[:, None]  # (R, k)
        pending &= ~recovered
        unfinished = pending.any(axis=0)  # per packet
        newly_done = (~unfinished) & (rounds_needed == 0)
        rounds_needed[newly_done] = round_index
        if not unfinished.any():
            return (n / k) * float(rounds_needed.mean())
        base = times[-1] + timing.packet_interval + timing.round_gap
    raise RuntimeError(f"transmission group unfinished after {_MAX_ROUNDS} rounds")


def sample_chunk(
    loss_model: LossModel,
    timing: Timing,
    rngs: Iterable[np.random.Generator],
    *,
    k: int,
    h: int,
    codec: RSECodec | str | None = None,
) -> np.ndarray:
    """Chunk-shaped kernel: one layered-FEC E[M] sample per rng in ``rngs``.

    This is the unit of work the sharded engine (:mod:`repro.mc.sharded`)
    dispatches: each replication draws from *its own* generator, so a chunk
    is fully determined by the seeds it is handed — independent of how the
    replication range was split.

    ``codec`` (optional: ``"rse"``, the form that crosses the sharded
    engine's process boundary, or a live codec) payload-verifies every
    distinct decodable pattern (:func:`repro.mc._common.block_verifier`);
    statistics are unchanged.
    """
    _validate_geometry(k, h)
    verifier = block_verifier(codec, k, h)
    offsets = np.arange(k + h) * timing.packet_interval
    return np.array(
        [
            _one_replication(loss_model, k, h, timing, offsets, rng, verifier)
            for rng in rngs
        ],
        dtype=float,
    )


def simulate_layered(
    loss_model: LossModel,
    k: int,
    h: int,
    replications: int = 200,
    timing: Timing = PAPER_TIMING,
    rng: np.random.SeedSequence | np.random.Generator | int | None = None,
    codec: RSECodec | str | None = None,
) -> MCResult:
    """Estimate layered-FEC E[M] (transmissions per data packet).

    Parameters
    ----------
    loss_model:
        Any joint loss process (independent / tree-shared / burst).
    k, h:
        Transmission-group size and parity count per block.
    replications:
        Independent transmission groups to average over.
    timing:
        ``Delta`` and ``T`` of Figure 13 — only material under burst loss.
    codec:
        Optional ``"rse"`` or :class:`~repro.fec.rse.RSECodec` for the
        block.  When given, every distinct decodable erasure pattern
        sampled is replayed through the codec's decode path and checked
        against real payloads (see :class:`repro.mc._common.PayloadVerifier`);
        statistics are unchanged.
    rng:
        Root of the replication seed tree; the call is exactly
        ``run_sharded("layered", ...)`` at a fixed replication count.
    """
    from repro.mc.sharded import run_sharded

    return run_sharded(
        "layered",
        loss_model,
        params={"k": k, "h": h, "codec": codec},
        replications=replications,
        timing=timing,
        rng=rng,
    )
