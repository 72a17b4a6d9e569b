"""Event-driven multicast network connecting one sender to R receivers.

This is the transport substrate the protocol state machines
(:mod:`repro.protocols`) run on.  It models exactly what the paper's
analysis assumes:

* a downstream multicast channel from the sender to every receiver, with
  per-receiver packet loss drawn from any :class:`repro.sim.loss.LossModel`
  (so independent, heterogeneous, tree-shared and burst loss all plug in),
* an upstream/feedback channel that is also multicast (receivers hear each
  other's NAKs — required for NAK suppression) and is lossless by default,
  matching the paper's "NAKs are never lost" assumption; a feedback loss
  probability can be configured for robustness experiments,
* constant one-way propagation latency in each direction.

The network knows nothing about packet semantics; it delivers opaque
objects to registered handlers and counts what passed through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Callable

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.loss import LossModel

__all__ = ["MulticastNetwork", "NetworkStats"]


@dataclass
class NetworkStats:
    """Counters of everything the network carried.

    ``downstream_sent`` counts multicast transmissions (one per send call,
    not per receiver); ``downstream_delivered`` counts per-receiver
    deliveries.  The expected number of transmissions per packet — the
    paper's E[M] — is computed by the protocol harness from these plus the
    protocol's own accounting.
    """

    downstream_sent: int = 0
    downstream_delivered: int = 0
    downstream_lost: int = 0
    feedback_sent: int = 0
    feedback_delivered: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    #: faults injected by a wrapping :class:`repro.resilience.FaultInjector`
    #: (empty unless a fault plan is in force)
    injected: dict[str, int] = field(default_factory=dict)

    def count_kind(self, kind: str) -> None:
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    def count_injected(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1


class MulticastNetwork:
    """One sender, ``R`` receivers, loss-model-driven multicast delivery.

    Parameters
    ----------
    sim:
        The discrete-event scheduler.
    loss_model:
        Joint downstream loss process across receivers.
    rng:
        Source of randomness for loss draws and feedback jitter.
    latency:
        One-way propagation delay, seconds (applies both directions).
    feedback_loss:
        Probability that a feedback packet is lost at an individual
        listener (0 reproduces the paper's assumption).
    control_loss:
        Probability that a downstream *control* packet (a POLL) is lost at
        an individual receiver.  The paper treats the feedback round as
        reliable, so the default is 0; raise it (together with receiver
        watchdogs) for robustness experiments.
    """

    def __init__(
        self,
        sim: Simulator,
        loss_model: LossModel,
        rng: np.random.Generator,
        latency: float = 0.02,
        feedback_loss: float = 0.0,
        control_loss: float = 0.0,
    ):
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        if not 0.0 <= feedback_loss < 1.0:
            raise ValueError(f"feedback_loss must be in [0, 1), got {feedback_loss}")
        if not 0.0 <= control_loss < 1.0:
            raise ValueError(f"control_loss must be in [0, 1), got {control_loss}")
        self.sim = sim
        self.loss_model = loss_model
        self.rng = rng
        self.latency = latency
        self.feedback_loss = feedback_loss
        self.control_loss = control_loss
        self.stats = NetworkStats()
        # one realisation of the loss process for the network's lifetime:
        # temporally-correlated models (burst loss) must carry their chain
        # state across transmissions, not restart per packet
        self._loss_sampler = loss_model.start(rng)

        self._sender_handler: Callable[[Any], None] | None = None
        self._receiver_handlers: list[Callable[[Any], None]] = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    @property
    def n_receivers(self) -> int:
        return self.loss_model.n_receivers

    def attach_sender(self, handler: Callable[[Any], None]) -> None:
        """Register the sender's feedback-reception callback."""
        self._sender_handler = handler

    def attach_receiver(self, handler: Callable[[Any], None]) -> int:
        """Register one receiver's packet callback; returns its id."""
        if len(self._receiver_handlers) >= self.n_receivers:
            raise ValueError(
                f"loss model supports {self.n_receivers} receivers; "
                f"all slots already attached"
            )
        self._receiver_handlers.append(handler)
        return len(self._receiver_handlers) - 1

    def _require_wired(self) -> None:
        if self._sender_handler is None:
            raise RuntimeError("no sender attached")
        if len(self._receiver_handlers) != self.n_receivers:
            raise RuntimeError(
                f"{len(self._receiver_handlers)} receivers attached, "
                f"loss model expects {self.n_receivers}"
            )

    # ------------------------------------------------------------------
    # downstream (sender -> receivers)
    # ------------------------------------------------------------------
    def multicast(self, packet: Any, kind: str = "data") -> np.ndarray:
        """Multicast ``packet`` to all receivers, applying the loss model.

        Returns the boolean loss vector for observability in tests.
        Delivery happens ``latency`` seconds later via the event queue.
        """
        self._require_wired()
        lost = self._loss_sampler.sample(np.array([self.sim.now]))[:, 0]
        self.stats.downstream_sent += 1
        self.stats.count_kind(kind)
        handlers = list(compress(self._receiver_handlers, (~lost).tolist()))
        self.stats.downstream_lost += len(lost) - len(handlers)
        self.stats.downstream_delivered += len(handlers)
        self.sim.schedule_fanout(self.latency, handlers, packet)
        return lost

    def multicast_control(self, packet: Any, kind: str = "poll") -> None:
        """Multicast a downstream control packet (POLL).

        Control packets ride outside the data loss model: the paper's
        analysis assumes the poll/NAK round trip is reliable.  An optional
        ``control_loss`` probability lets robustness tests break that
        assumption deliberately.
        """
        self._require_wired()
        self.stats.downstream_sent += 1
        self.stats.count_kind(kind)
        handlers = [
            handler
            for handler in self._receiver_handlers
            if not (self.control_loss and self.rng.random() < self.control_loss)
        ]
        self.stats.downstream_lost += len(self._receiver_handlers) - len(handlers)
        self.stats.downstream_delivered += len(handlers)
        self.sim.schedule_fanout(self.latency, handlers, packet)

    # ------------------------------------------------------------------
    # feedback (receiver -> sender + other receivers)
    # ------------------------------------------------------------------
    def multicast_feedback(self, packet: Any, origin: int, kind: str = "nak") -> None:
        """Multicast a feedback packet from receiver ``origin``.

        Delivered to the sender and to every *other* receiver (the origin
        obviously has it), each delivery independently subject to
        ``feedback_loss``.
        """
        self._require_wired()
        self.stats.feedback_sent += 1
        self.stats.count_kind(kind)
        others = [
            handler
            for receiver_id, handler in enumerate(self._receiver_handlers)
            if receiver_id != origin
        ]
        # one draw for the sender, then one per other receiver in order:
        # the same stream the scalar draws took, in one call
        draws = self.rng.random(1 + len(others))
        kept = (draws >= self.feedback_loss).tolist()
        if kept[0]:
            self.stats.feedback_delivered += 1
        # the sender's delivery first, then the others', as one fan-out
        handlers = list(compress([self._sender_handler, *others], kept))
        self.sim.schedule_fanout(self.latency, handlers, packet)

    def unicast_feedback(self, packet: Any, kind: str = "ack") -> None:
        """Send feedback to the sender only (used by ACK-style extensions)."""
        self._require_wired()
        self.stats.feedback_sent += 1
        self.stats.count_kind(kind)
        if self.rng.random() >= self.feedback_loss:
            self.stats.feedback_delivered += 1
            self.sim.schedule_fanout(self.latency, [self._sender_handler], packet)
