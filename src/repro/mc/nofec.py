"""Monte-Carlo estimate of E[M] for plain ARQ (no FEC).

One packet is (re)transmitted — successive attempts spaced ``Delta + T``
apart per Figure 13 — until every receiver has a copy.  Works with *any*
:class:`repro.sim.loss.LossModel`: independent, shared-tree and burst loss
all flow through the model's incremental sampler, which is the whole point
(the closed forms only cover the independent cases).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.mc._common import MCResult, PAPER_TIMING, Timing
from repro.sim.loss import LossModel

__all__ = ["simulate_nofec", "sample_chunk"]

#: Attempts per incremental sampling chunk.
_CHUNK = 16
#: Give up (and fail loudly) after this many attempts for one packet.
_MAX_ATTEMPTS = 100_000


def _one_replication(
    loss_model: LossModel,
    spacing: float,
    offsets: np.ndarray,
    rng: np.random.Generator,
) -> float:
    """Number of transmissions until all receivers hold the packet.

    ``offsets`` are the attempt instants of one chunk relative to its
    first, ``i * spacing``; :func:`sample_chunk` builds them once.
    """
    sampler = loss_model.start(rng)
    missing = np.ones(loss_model.n_receivers, dtype=bool)
    attempts = 0
    base = 0.0
    while attempts < _MAX_ATTEMPTS:
        times = base + offsets
        lost = sampler.sample(times)  # (R, _CHUNK)
        # per receiver: first successful attempt within the chunk (if any)
        received = ~lost & missing[:, None]
        got = received.any(axis=1)
        missing &= ~got
        if not missing.any():
            # last receiver completes at the latest first-success column
            first_success = np.where(
                received.any(axis=1), received.argmax(axis=1), -1
            )
            last_needed = int(first_success.max())
            return attempts + last_needed + 1
        attempts += _CHUNK
        base = times[-1] + spacing
    raise RuntimeError(
        f"packet not delivered to all receivers within {_MAX_ATTEMPTS} attempts"
    )


def sample_chunk(
    loss_model: LossModel,
    timing: Timing,
    rngs: Iterable[np.random.Generator],
) -> np.ndarray:
    """Chunk-shaped kernel: one no-FEC E[M] sample per rng in ``rngs``.

    The sharded engine hands each replication its own seed-tree generator.
    """
    spacing = timing.packet_interval + timing.round_gap
    offsets = np.arange(_CHUNK) * spacing
    return np.array(
        [_one_replication(loss_model, spacing, offsets, rng) for rng in rngs],
        dtype=float,
    )


def simulate_nofec(
    loss_model: LossModel,
    replications: int = 200,
    timing: Timing = PAPER_TIMING,
    rng: np.random.SeedSequence | np.random.Generator | int | None = None,
) -> MCResult:
    """Estimate E[M] for ARQ without FEC under ``loss_model``.

    Exactly ``run_sharded("nofec", ...)`` at a fixed replication count:
    ``rng`` roots the replication seed tree.
    """
    from repro.mc.sharded import run_sharded

    return run_sharded(
        "nofec", loss_model, replications=replications, timing=timing, rng=rng
    )
