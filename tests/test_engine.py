"""Tests for the discrete-event scheduler."""

from __future__ import annotations

import weakref
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import (
    EventScheduler,
    add_events_processed,
    events_processed_total,
    reset_events_processed,
)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = EventScheduler()
        fired = []
        engine.post(3.0, fired.append, "c")
        engine.post(1.0, fired.append, "a")
        engine.post(2.0, fired.append, "b")
        assert engine.run() == 3
        assert fired == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_ties_fire_in_insertion_order(self):
        engine = EventScheduler()
        fired = []
        for label in "abc":
            engine.post(1.0, fired.append, label)
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_post_at_absolute_time_after_a_start_time(self):
        engine = EventScheduler(start_time=10.0)
        fired = []
        engine.post(12.5, fired.append, "x")
        engine.run()
        assert fired == ["x"]
        assert engine.now == 12.5

    def test_scheduling_in_the_past_rejected(self):
        engine = EventScheduler(start_time=5.0)
        with pytest.raises(SimulationError):
            engine.post(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        engine = EventScheduler()
        fired = []
        engine.post(3.0, fired.append, "later")
        engine.run(until=2.0)
        with pytest.raises(SimulationError):
            engine.post(engine.now - 0.5, fired.append, "past")
        assert engine.pending == 1  # the refused event never reached the heap
        engine.run()
        assert fired == ["later"]

    def test_callbacks_and_arguments_are_never_compared(self):
        class Uncomparable:
            def __lt__(self, other):
                raise AssertionError("heap compared past (time, seq)")

            __gt__ = __le__ = __ge__ = __lt__

            def __call__(self, label):
                fired.append(label)

        engine = EventScheduler()
        fired = []
        for label in "abc":
            engine.post(1.0, Uncomparable(), Uncomparable() if label == "b" else label)
        engine.run()
        assert fired[0] == "a" and fired[2] == "c"
        assert isinstance(fired[1], Uncomparable)

    def test_events_scheduled_during_run(self):
        engine = EventScheduler()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                engine.post(engine.now + 1.0, chain, depth + 1)

        engine.post(0.0, chain, 0)
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now == 3.0


class TestRunBounds:
    def test_run_until_stops_and_advances_clock(self):
        engine = EventScheduler()
        fired = []
        engine.post(1.0, fired.append, "a")
        engine.post(5.0, fired.append, "b")
        assert engine.run(until=3.0) == 1
        assert fired == ["a"]
        assert engine.now == 3.0  # clock advanced to `until`
        assert engine.run() == 1
        assert fired == ["a", "b"]

    def test_step_on_empty_queue(self):
        assert EventScheduler().step() is False

    def test_step_fires_the_earliest_event(self):
        engine = EventScheduler()
        fired = []
        engine.post(2.0, fired.append, "b")
        engine.post(1.0, fired.append, "a")
        assert engine.step() is True
        assert fired == ["a"]
        assert engine.now == 1.0
        assert engine.pending == 1

    def test_processed_counter(self):
        reset_events_processed()
        engine = EventScheduler()
        for t in (1.0, 2.0, 3.0, 4.0):
            engine.post(t, lambda: None)
        assert engine.run(until=2.0) == 2
        assert events_processed_total() == 2
        assert engine.step() is True
        assert events_processed_total() == 3
        assert engine.run() == 1
        assert events_processed_total() == 4
        assert engine.run() == 0
        assert events_processed_total() == 4


class TestBatchedRunUntil:
    def test_executes_events_up_to_and_including_bound(self):
        engine = EventScheduler()
        fired = []
        for t in (1.0, 2.0, 3.0):
            engine.post(t, fired.append, t)
        assert engine.run(until=2.0) == 2
        assert fired == [1.0, 2.0]
        assert engine.now == 2.0

    def test_advances_clock_past_drained_queue(self):
        engine = EventScheduler()
        assert engine.run(until=7.5) == 0
        assert engine.now == 7.5

    def test_events_scheduled_during_batch_run(self):
        engine = EventScheduler()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                engine.post(engine.now + 1.0, chain, depth + 1)

        engine.post(0.0, chain, 0)
        assert engine.run(until=2.0) == 3  # depths 0, 1, 2; depth 3 at t=3.0
        assert engine.pending == 1


class TestBackwardsClock:
    """Regression: a bound earlier than `now` used to silently rewind the
    windowed timeline; the clock must refuse to move backwards."""

    def test_run_until_rejects_backwards_bound(self):
        engine = EventScheduler()
        engine.run(until=10.0)
        with pytest.raises(SimulationError, match="never moves backwards"):
            engine.run(until=5.0)
        assert engine.now == 10.0  # clock untouched by the failed call

    def test_run_rejects_backwards_until(self):
        engine = EventScheduler()
        engine.post(1.0, lambda: None)
        engine.run(until=4.0)
        with pytest.raises(SimulationError, match="never moves backwards"):
            engine.run(until=2.0)
        assert engine.now == 4.0

    def test_equal_bound_is_a_no_op(self):
        engine = EventScheduler()
        engine.run(until=3.0)
        assert engine.run(until=3.0) == 0
        assert engine.now == 3.0


class _Payload:
    """Something weakref-able to pass as an event argument."""


class TestFreelist:
    """``post`` and what the scheduler keeps once an event is gone (the
    class name predates the plain heap: there is no freelist any more)."""

    def test_nothing_pending_after_post_run_rounds(self):
        reset_events_processed()
        engine = EventScheduler()
        for _ in range(100):
            engine.post(engine.now + 1.0, lambda: None)
            engine.run()
        assert engine.pending == 0
        assert events_processed_total() == 100

    def test_fired_event_releases_its_arguments(self):
        engine = EventScheduler()
        payload = _Payload()
        ref = weakref.ref(payload)
        engine.post(1.0, lambda obj: None, payload)
        del payload
        assert ref() is not None  # the heap entry keeps it alive
        engine.run()
        assert ref() is None

    def test_post_rejects_past_times(self):
        engine = EventScheduler(start_time=5.0)
        with pytest.raises(SimulationError):
            engine.post(4.0, lambda: None)


class TestProcessCounter:
    def test_reset_zeroes_total(self):
        reset_events_processed()
        engine = EventScheduler()
        engine.post(1.0, lambda: None)
        engine.run()
        add_events_processed(5)
        assert events_processed_total() == 6
        reset_events_processed()
        assert events_processed_total() == 0

    def test_step_counts_into_process_total(self):
        reset_events_processed()
        engine = EventScheduler()
        engine.post(1.0, lambda: None)
        assert engine.step() is True
        assert events_processed_total() == 1


class _ModelScheduler:
    """Reference model: a list scanned for its ``(time, seq)`` minimum."""

    def __init__(self):
        self.now = 0.0
        self.entries = []  # [time, seq, label, child_delay]
        self.seq = 0
        self.processed = 0
        self.fired = []

    def add(self, time, label, child_delay):
        self.entries.append([time, self.seq, label, child_delay])
        self.seq += 1

    def run(self, until=inf, limit=inf):
        executed = 0
        while self.entries and executed < limit:
            entry = min(self.entries, key=lambda e: (e[0], e[1]))
            if entry[0] > until:
                break
            self.entries.remove(entry)
            self.now = entry[0]
            executed += 1
            self.fired.append(entry[2])
            if entry[3] is not None:
                self.add(self.now + entry[3], entry[2] + "'", None)
        self.processed += executed
        if until != inf and until > self.now:
            self.now = until
        return executed


#: sums of these are exact in binary floating point, so ties are frequent
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 4.0])
_OPS = st.one_of(
    st.tuples(st.just("post"), _DELAYS, st.none() | _DELAYS),
    st.tuples(st.just("run-until"), _DELAYS),
    st.tuples(st.just("step")),
    st.tuples(st.just("run")),
)


class TestAgainstReferenceModel:
    """Differential pin for the pop loop: whatever the heap layout, the
    scheduler must behave like a list popped in ``(time, seq)`` order, and
    credit the process-wide total with exactly the events it executed."""

    @settings(max_examples=200)
    @given(st.lists(_OPS, max_size=40))
    def test_random_programs_agree(self, program):
        reset_events_processed()
        engine = EventScheduler()
        model = _ModelScheduler()
        fired = []

        def fire(label, child_delay):
            fired.append(label)
            if child_delay is not None:
                engine.post(engine.now + child_delay, fire, label + "'", None)

        for index, op in enumerate(program):
            label = str(index)
            if op[0] == "post":
                engine.post(engine.now + op[1], fire, label, op[2])
                model.add(model.now + op[1], label, op[2])
            elif op[0] == "run-until":
                bound = engine.now + op[1]
                assert engine.run(until=bound) == model.run(until=bound)
            elif op[0] == "step":
                assert engine.step() is (model.run(limit=1) == 1)
            else:
                assert engine.run() == model.run()
            assert fired == model.fired
            assert engine.now == model.now
            assert engine.pending == len(model.entries)
            assert events_processed_total() == model.processed
