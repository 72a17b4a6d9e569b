"""A small discrete-event simulation engine.

Everything event-driven in this repository (the NP and N2 protocol machines,
the example applications) runs on this scheduler.  It is intentionally
minimal: a monotonic simulated clock, a binary-heap event queue with stable
FIFO ordering for simultaneous events, and cancellable timers — the three
things a NAK-suppression protocol actually needs.

The heap holds plain ``(time, sequence, entry)`` tuples: ``sequence`` is a
per-simulator counter, so ties in ``time`` fall back to scheduling order and
no comparison ever reaches the entry — ordering runs in C, not in Python.
An entry is an :class:`EventHandle` (one callback) or a *fan-out*: one
multicast's deliveries of the same argument to many handlers
(:meth:`Simulator.schedule_fanout`).  A fan-out is still one event per
handler — each :meth:`~Simulator.step` runs one delivery, counts it and
checks the budget before it — but it costs one heap entry and no closure
per multicast instead of one of each per receiver.  It stays at the head
until its last handler is dispatched, so its deliveries run back to back,
exactly as if they had taken consecutive sequence numbers.

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
from typing import Any

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


class _Fanout:
    """Queued deliveries of ``arg`` to ``handlers[cursor:]``, in order."""

    __slots__ = ("handlers", "arg", "cursor", "last")

    #: a fan-out cannot be cancelled; the heap loop reads this like a handle's
    cancelled = False

    def __init__(self, handlers, arg):
        self.handlers = handlers
        self.arg = arg
        self.cursor = 0
        self.last = len(handlers) - 1


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
        self._queue: list[tuple[float, int, EventHandle | _Fanout]] = []
        self._sequence = itertools.count()
        #: undelivered handlers of queued fan-outs beyond their one entry
        self._fanout_backlog = 0

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

    def schedule_fanout(
        self, delay: float, handlers: list[Callable[[Any], None]], arg: Any
    ) -> None:
        """Schedule ``handler(arg)`` for every handler, ``delay`` from now.

        The deliveries run in list order, one per :meth:`step`, as if each
        were scheduled by :meth:`schedule` back to back; they cannot be
        cancelled.  ``handlers`` is kept, not copied: do not mutate it.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if not handlers:
            return
        heapq.heappush(
            self._queue,
            (self.now + delay, next(self._sequence), _Fanout(handlers, arg)),
        )
        self._fanout_backlog += len(handlers) - 1

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events; every undelivered
        handler of a fan-out counts as one."""
        return len(self._queue) + self._fanout_backlog

    def step(self) -> bool:
        """Dispatch the next event; returns False when the queue is empty.

        The event budget is checked before the event leaves the queue: when
        it trips, the event stays pending, :attr:`now` is the time of the
        last event that ran and :attr:`events_dispatched` equals
        :attr:`max_events`.
        """
        queue = self._queue
        while queue:
            time, _, entry = queue[0]
            if entry.cancelled:
                heapq.heappop(queue)
                continue
            if self.events_dispatched >= self.max_events:
                raise SimulationError(
                    f"event budget exhausted after {self.max_events} events — "
                    f"likely a protocol livelock "
                    f"(sim clock t={self.now:.3f}, "
                    f"{self.pending} events pending, "
                    f"{self.events_dispatched} dispatched)"
                )
            self.now = time
            self.events_dispatched += 1
            if entry.__class__ is _Fanout:
                # anything a handler schedules sorts after this entry, so it
                # stays at the head until its last delivery leaves
                index = entry.cursor
                if index == entry.last:
                    heapq.heappop(queue)
                else:
                    entry.cursor = index + 1
                    self._fanout_backlog -= 1
                entry.handlers[index](entry.arg)
            else:
                heapq.heappop(queue)
                entry.callback()
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
            time, _, entry = queue[0]
            if entry.cancelled:
                heapq.heappop(queue)
                continue
            if time > until:
                break
            self.step()
        self.now = max(self.now, until)
