"""A small discrete-event simulation engine.

Everything event-driven in this repository (the NP and N2 protocol machines,
the example applications) runs on this scheduler.  It is intentionally
minimal: a monotonic simulated clock, a binary-heap event queue with stable
FIFO ordering for simultaneous events, and cancellable timers — the three
things a NAK-suppression protocol actually needs.

The heap holds plain ``(time, sequence, handle)`` tuples: ``sequence`` is a
per-simulator counter, so ties in ``time`` fall back to scheduling order and
no comparison ever reaches the handle — ordering runs in C, not in Python.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> handle = sim.schedule(2.0, lambda: fired.append(sim.now))
>>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
>>> sim.run()
>>> fired
[1.0, 2.0]
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable

__all__ = ["Simulator", "EventHandle", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (negative delays, runaway event loops)."""


class EventHandle:
    """A scheduled callback that can be cancelled before it fires."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]):
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired."""
        self.cancelled = True


class Simulator:
    """Discrete-event scheduler with a floating-point clock.

    Parameters
    ----------
    max_events:
        Safety valve: :meth:`run` raises :class:`SimulationError` after this
        many dispatched events, catching protocol livelocks in tests instead
        of hanging them.
    """

    def __init__(self, max_events: int = 50_000_000):
        self.now = 0.0
        self.max_events = max_events
        self.events_dispatched = 0
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._sequence = itertools.count()

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        handle = EventHandle(time, callback)
        heapq.heappush(self._queue, (time, next(self._sequence), handle))
        return handle

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    def step(self) -> bool:
        """Dispatch the next event; returns False when the queue is empty.

        The event budget is checked before the event leaves the queue: when
        it trips, the event stays pending, :attr:`now` is the time of the
        last event that ran and :attr:`events_dispatched` equals
        :attr:`max_events`.
        """
        queue = self._queue
        while queue:
            time, _, handle = queue[0]
            if handle.cancelled:
                heapq.heappop(queue)
                continue
            if self.events_dispatched >= self.max_events:
                raise SimulationError(
                    f"event budget exhausted after {self.max_events} events — "
                    f"likely a protocol livelock "
                    f"(sim clock t={self.now:.3f}, "
                    f"{len(queue)} events pending, "
                    f"{self.events_dispatched} dispatched)"
                )
            heapq.heappop(queue)
            self.now = time
            self.events_dispatched += 1
            handle.callback()
            return True
        return False

    def run(self, until: float | None = None) -> None:
        """Run until the queue empties or the clock would pass ``until``."""
        if until is None:
            while self.step():
                pass
            return
        queue = self._queue
        while queue:
            time, _, handle = queue[0]
            if handle.cancelled:
                heapq.heappop(queue)
                continue
            if time > until:
                break
            self.step()
        self.now = max(self.now, until)
