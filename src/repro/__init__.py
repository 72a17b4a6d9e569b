"""repro — Parity-Based Loss Recovery for Reliable Multicast Transmission.

A full Python reproduction of Nonnenmacher, Biersack & Towsley (SIGCOMM
'97): Reed-Solomon erasure coding, the hybrid-ARQ multicast protocol NP and
its baselines, the paper's closed-form performance models, Monte-Carlo
simulators for correlated-loss scenarios, and a harness regenerating every
figure of the evaluation.

Quick start::

    from repro import ReliableMulticastSession, ScenarioConfig
    session = ReliableMulticastSession(ScenarioConfig(n_receivers=50, seed=7))
    report = session.send(open("payload.bin", "rb").read())
    print(report.summary())

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.galois` / :mod:`repro.fec` — GF(2^m) + systematic RSE codec;
* :mod:`repro.sim` — event engine, loss models, trees, network;
* :mod:`repro.protocols` — NP, N2, layered-FEC state machines + harness;
* :mod:`repro.analysis` — every equation in the paper;
* :mod:`repro.mc` — vectorised Monte-Carlo experiments;
* :mod:`repro.experiments` — per-figure reproduction runners;
* :mod:`repro.core` — high-level session facade and FEC planning.
"""

from repro.core import (
    ReliableMulticastSession,
    ScenarioConfig,
    compare_protocols,
    expected_overhead,
    proactive_parities_for_single_round,
    required_parities,
)
from repro.fec import RSECodec
from repro.protocols import NPConfig, TransferReport, run_transfer
from repro.resilience import (
    ChaosPlan,
    DeliveryCorrupt,
    FaultInjector,
    FaultPlan,
    ReceiverCrash,
    ResilienceSummary,
    StallReport,
    TransferError,
    TransferStalled,
    TransferTimeout,
)

__version__ = "1.0.0"

__all__ = [
    "ReliableMulticastSession",
    "ScenarioConfig",
    "compare_protocols",
    "required_parities",
    "proactive_parities_for_single_round",
    "expected_overhead",
    "RSECodec",
    "NPConfig",
    "TransferReport",
    "run_transfer",
    "FaultPlan",
    "FaultInjector",
    "ChaosPlan",
    "ReceiverCrash",
    "TransferError",
    "TransferTimeout",
    "TransferStalled",
    "DeliveryCorrupt",
    "StallReport",
    "ResilienceSummary",
    "__version__",
]
