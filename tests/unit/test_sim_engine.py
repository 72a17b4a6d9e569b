"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        fired = []
        for name in "abcde":
            sim.schedule(1.0, lambda name=name: fired.append(name))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="into the past"):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: sim.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError, match="before current time"):
            sim.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancel_from_earlier_event(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, lambda: fired.append("late"))
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_pending_counts_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        assert sim.pending == 1  # lazily removed
        sim.run()
        assert sim.pending == 0


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0
        sim.run()
        assert fired == [1, 5]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_event_budget_guards_livelock(self):
        sim = Simulator(max_events=100)

        def reschedule():
            sim.schedule(0.001, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationError, match="budget exhausted"):
            sim.run()

    def test_event_budget_message_names_clock_and_queue_state(self):
        # the exhaustion message must carry enough context to triage a
        # livelock without a debugger: sim clock, pending and dispatched
        sim = Simulator(max_events=50)

        def reschedule():
            sim.schedule(0.5, reschedule)
            sim.schedule(0.5, lambda: None)  # keep the queue visibly deep

        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "sim clock t=" in message
        assert f"t={sim.now:.3f}" in message
        assert f"{sim.pending} events pending" in message
        assert f"{sim.events_dispatched} dispatched" in message

    def test_budget_trip_leaves_the_tripping_event_pending(self):
        # the budget is checked before the event is popped: it is not lost,
        # the clock stays at the last event that ran, and the counter names
        # only events that actually ran
        sim = Simulator(max_events=3)
        fired = []
        for time in (1.0, 2.0, 3.0, 4.0):
            sim.schedule_at(time, lambda time=time: fired.append(time))
        with pytest.raises(SimulationError, match="budget exhausted"):
            sim.run()
        assert fired == [1.0, 2.0, 3.0]
        assert sim.events_dispatched == 3
        assert sim.now == 3.0
        assert sim.pending == 1
        with pytest.raises(SimulationError, match="3 dispatched"):
            sim.step()
        sim.max_events = 4
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]
        assert sim.events_dispatched == 4

    def test_events_dispatched_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_dispatched == 5

    def test_run_until_skips_cancelled_head(self):
        sim = Simulator()
        fired = []
        head = sim.schedule(1.0, lambda: fired.append("head"))
        sim.schedule(2.0, lambda: fired.append("tail"))
        head.cancel()
        sim.run(until=10.0)
        assert fired == ["tail"]

    def test_zero_delay_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.0]


class ReferenceScheduler:
    """The engine's contract on a sorted list: pop the least ``(time, seq)``.

    Cancelled entries are dropped only when they reach the head, as the
    heap does lazily, so ``pending`` is comparable too.
    """

    def __init__(self):
        self.now = 0.0
        self.queue: list[list] = []  # [time, sequence, callback, cancelled]
        self.sequence = 0

    def schedule(self, delay, callback):
        entry = [self.now + delay, self.sequence, callback, False]
        self.sequence += 1
        self.queue.append(entry)
        self.queue.sort(key=lambda e: (e[0], e[1]))
        return entry

    @staticmethod
    def cancel(entry):
        entry[3] = True

    @property
    def pending(self):
        return len(self.queue)

    def step(self):
        while self.queue:
            entry = self.queue.pop(0)
            if entry[3]:
                continue
            self.now = entry[0]
            entry[2]()
            return True
        return False

    def run(self, until):
        while self.queue:
            if self.queue[0][3]:
                self.queue.pop(0)
                continue
            if self.queue[0][0] > until:
                break
            self.step()
        self.now = max(self.now, until)


#: few distinct delays, so simultaneous events (the FIFO tie-break) are common
DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), DELAYS, st.none() | DELAYS),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("run"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])),
        st.tuples(st.just("step")),
    ),
    max_size=40,
)


def drive(scheduler, schedule, cancel, operations):
    """Apply ``operations``; returns the dispatch log and state trace."""
    fired, handles, trace = [], [], []

    def plan(label, delay, child_delay):
        def callback():
            fired.append(label)
            if child_delay is not None:
                plan(label + "'", child_delay, None)

        handles.append(schedule(delay, callback))

    for number, operation in enumerate(operations):
        kind = operation[0]
        if kind == "schedule":
            plan(f"e{number}", operation[1], operation[2])
        elif kind == "cancel" and handles:
            cancel(handles[operation[1] % len(handles)])
        elif kind == "run":
            scheduler.run(until=scheduler.now + operation[1])
        elif kind == "step":
            scheduler.step()
        trace.append((tuple(fired), scheduler.now, scheduler.pending))
    scheduler.run(until=scheduler.now + 100.0)
    trace.append((tuple(fired), scheduler.now, scheduler.pending))
    return trace


class TestReferenceModel:
    @given(operations=OPERATIONS)
    @settings(max_examples=200, deadline=None)
    def test_matches_sorted_list_model(self, operations):
        sim = Simulator()
        model = ReferenceScheduler()
        assert drive(sim, sim.schedule, lambda h: h.cancel(), operations) == (
            drive(model, model.schedule, model.cancel, operations)
        )
