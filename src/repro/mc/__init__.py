"""Vectorised Monte-Carlo simulators for the paper's experiments.

These complement :mod:`repro.analysis`: the closed forms cover independent
loss; the simulators here additionally handle the shared-tree and burst
loss models of Section 4 (Figures 11, 12, 14, 15, 16) and cross-validate
the analysis everywhere both apply.

There is one way to run a replication:
:func:`repro.mc.sharded.run_sharded` — chunked, optionally
process-parallel and adaptive-stopping, with bit-identical statistics for
any shard/job split thanks to per-replication seed trees and the exact
mergeable accumulator in :mod:`repro.mc.streaming`.  The ``simulate_*``
functions are that call at a fixed replication count, by name.
"""

from repro.mc._common import MCResult, PAPER_TIMING, Timing
from repro.mc.burst import BurstHistogram, burst_length_histogram, run_lengths
from repro.mc.integrated import (
    simulate_integrated_immediate,
    simulate_integrated_rounds,
)
from repro.mc.layered import simulate_layered
from repro.mc.nofec import simulate_nofec
from repro.mc.sharded import SIMULATORS, replication_rng, run_sharded
from repro.mc.streaming import StreamingMoments

__all__ = [
    "MCResult",
    "Timing",
    "PAPER_TIMING",
    "simulate_nofec",
    "simulate_layered",
    "simulate_integrated_immediate",
    "simulate_integrated_rounds",
    "BurstHistogram",
    "burst_length_histogram",
    "run_lengths",
    "StreamingMoments",
    "run_sharded",
    "replication_rng",
    "SIMULATORS",
]
