"""Adaptive proactive redundancy — the paper's future-work knob, built.

Two threads in the paper motivate this extension:

* Equation (6) carries an ``a`` — parities sent *with* the original data —
  but the evaluation always uses ``a = 0`` (pure reactive repair).
  Proactive parities buy latency: a receiver that got ``k`` of ``k + a``
  packets never waits for a feedback round.
* Section 4.1 warns that "adaptive transport mechanisms based on
  measurements of receiver loss rates will overestimate ... the amount of
  redundancy needed" when losses are shared — so an adaptive scheme should
  react to *actual feedback* (NAK arrivals), which automatically sees the
  effective, spatially-correlated loss, rather than to per-receiver loss
  estimates.

:class:`AdaptiveParityController` implements an AIMD-style rule on the
observed per-group feedback: a NAK for a fresh group bumps the proactive
budget toward the observed shortfall (additive increase by need); a run of
silent groups decays it (multiplicative-ish decrease by one).
:class:`AdaptiveNPSender` plugs the controller into protocol NP through
the repair machine's one stream-time hook, so each group is provisioned
with the budget in force when the stream reaches it.  Receivers are stock
:class:`NPReceiver`\\ s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.protocols.np_protocol import NPConfig, NPSender
from repro.protocols.packets import Nak, control_intact

__all__ = ["AdaptiveParityController", "AdaptiveNPSender"]


@dataclass
class AdaptiveParityController:
    """AIMD controller for the proactive parity count ``a``.

    Parameters
    ----------
    initial:
        Starting budget.
    maximum:
        Hard cap (never exceed the group's parity budget ``h``).
    decrease_after:
        Number of consecutive NAK-free groups before decrementing.
    increase_fraction:
        Fraction of an observed shortfall added to the budget (1.0 jumps
        straight to covering the worst receiver; 0.5 is conservative).
    """

    initial: int = 0
    maximum: int = 16
    decrease_after: int = 4
    increase_fraction: float = 1.0
    current: int = field(init=False)
    naks_observed: int = field(default=0, init=False)
    silences_observed: int = field(default=0, init=False)
    _silent_streak: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.initial <= self.maximum:
            raise ValueError("need 0 <= initial <= maximum")
        if self.decrease_after < 1:
            raise ValueError("decrease_after must be >= 1")
        if not 0.0 < self.increase_fraction <= 1.0:
            raise ValueError("increase_fraction must be in (0, 1]")
        self.current = self.initial

    def proactive_count(self) -> int:
        """Budget to attach to the next transmission group."""
        return self.current

    def observe_shortfall(self, needed: int) -> None:
        """A first-round NAK arrived: ``needed`` parities were missing."""
        if needed < 1:
            return
        self.naks_observed += 1
        self._silent_streak = 0
        step = max(1, round(self.increase_fraction * needed))
        self.current = min(self.maximum, self.current + step)

    def observe_silence(self) -> None:
        """A group completed its first round without any NAK."""
        self.silences_observed += 1
        self._silent_streak += 1
        if self._silent_streak >= self.decrease_after and self.current > 0:
            self.current -= 1
            self._silent_streak = 0


class AdaptiveNPSender(NPSender):
    """Protocol NP sender with controller-driven proactive parities.

    Differences from the base sender:

    * each group streams ``k`` data packets plus ``a`` proactive parities,
      where ``a`` is the controller's budget when the stream reaches the
      group (the machine's stream-time hook);
    * a first-round NAK reports its shortfall to the controller; groups
      whose first round passes with no NAK report silence (detected
      lazily when the sender moves two groups past them).
    """

    def __init__(
        self,
        sim,
        network,
        data: bytes,
        config: NPConfig = NPConfig(),
        codec=None,
        controller: AdaptiveParityController | None = None,
    ):
        super().__init__(sim, network, data, config, codec=codec)
        self.controller = (
            controller
            if controller is not None
            else AdaptiveParityController(maximum=config.h)
        )
        if self.controller.maximum > config.h:
            raise ValueError(
                f"controller maximum {self.controller.maximum} exceeds the "
                f"parity budget h={config.h}"
            )
        self.proactive_sent = 0
        self._first_round_nak: set[int] = set()
        self._accounted: set[int] = set()

    def _proactive(self, available: int) -> int:
        """The controller's budget for the group the stream reaches."""
        budget = min(self.controller.proactive_count(), available)
        self.proactive_sent += budget
        return budget

    def _on_poll_sent(self, tg: int, sent: int, round_index: int) -> None:
        """Arm the silence deadline for the group's first round.

        A first-round NAK for POLL(tg, s, 1) can arrive no later than
        ``2 * latency + (s + 1) * slot_time`` after the poll went out (the
        last NAK slot, both ways of propagation).  If that deadline passes
        without one, the group's first round was silent.
        """
        if round_index != 1:
            return
        horizon = (
            2.0 * self.network.latency
            + (sent + 1) * self.config.slot_time
            + self.config.packet_interval
        )
        self.sim.schedule(horizon, lambda tg=tg: self._silence_deadline(tg))

    def _silence_deadline(self, tg: int) -> None:
        if tg in self._accounted:
            return
        self._accounted.add(tg)
        if tg not in self._first_round_nak:
            self.controller.observe_silence()

    def on_feedback(self, packet) -> None:
        if isinstance(packet, Nak) and not control_intact(packet):
            # corrupt NAKs must not steer the AIMD controller either;
            # super() would drop them, but only after this pre-processing
            self.stats.control_corrupt_discarded += 1
            return
        if isinstance(packet, Nak) and packet.round == 1:
            if (
                0 <= packet.tg < self.n_groups
                and packet.tg not in self._first_round_nak
            ):
                self._first_round_nak.add(packet.tg)
                if packet.tg not in self._accounted:
                    self._accounted.add(packet.tg)
                    self.controller.observe_shortfall(packet.needed)
        super().on_feedback(packet)
