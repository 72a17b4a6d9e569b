"""Simulation substrate: event engine, loss models, trees, network.

* :class:`repro.sim.Simulator` — discrete-event scheduler;
* :mod:`repro.sim.loss` — the paper's four loss behaviours;
* :mod:`repro.sim.tree` — multicast-tree builders;
* :class:`repro.sim.MulticastNetwork` — event-driven transport for the
  protocol state machines;
* :mod:`repro.sim.failure` — availability generators, failure domains
  and correlated-churn composition over any loss model.
"""

from repro.sim.engine import EventHandle, SimulationError, Simulator
from repro.sim.loss import (
    BernoulliLoss,
    ScriptedLoss,
    BurstyTreeLoss,
    FullBinaryTreeLoss,
    GilbertLoss,
    HeterogeneousLoss,
    LossModel,
    LossSampler,
    TreeLoss,
    two_class_probabilities,
)
from repro.sim.network import MulticastNetwork, NetworkStats
from repro.sim.trace import TraceEvent, TraceRecorder
from repro.sim.tree import (
    full_binary_tree,
    full_kary_tree,
    leaves_of,
    linear_chain,
    path_to_root,
    random_multicast_tree,
    star_topology,
)

# imported last: repro.sim.failure pulls in repro.resilience.faults, which
# itself imports from repro.sim — the engine/loss imports above must have
# completed first
from repro.sim.failure import (
    AvailabilityGenerator,
    AvailabilitySchedule,
    DomainOutageLoss,
    DomainTree,
    DownWindow,
    EmpiricalAvailability,
    PiecewiseRateAvailability,
    TraceAvailability,
    WeibullAvailability,
    member_down_windows,
    named_generator,
)

__all__ = [
    "Simulator",
    "EventHandle",
    "SimulationError",
    "LossModel",
    "LossSampler",
    "BernoulliLoss",
    "HeterogeneousLoss",
    "two_class_probabilities",
    "GilbertLoss",
    "FullBinaryTreeLoss",
    "BurstyTreeLoss",
    "ScriptedLoss",
    "TreeLoss",
    "MulticastNetwork",
    "NetworkStats",
    "TraceRecorder",
    "TraceEvent",
    "full_binary_tree",
    "full_kary_tree",
    "linear_chain",
    "star_topology",
    "random_multicast_tree",
    "leaves_of",
    "path_to_root",
    "DownWindow",
    "AvailabilitySchedule",
    "AvailabilityGenerator",
    "WeibullAvailability",
    "PiecewiseRateAvailability",
    "EmpiricalAvailability",
    "TraceAvailability",
    "named_generator",
    "DomainTree",
    "DomainOutageLoss",
    "member_down_windows",
]
