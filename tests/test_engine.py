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
        engine.schedule(3.0, fired.append, "c")
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(2.0, fired.append, "b")
        assert engine.run() == 3
        assert fired == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_ties_fire_in_insertion_order(self):
        engine = EventScheduler()
        fired = []
        for label in "abc":
            engine.schedule(1.0, fired.append, label)
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_schedule_at_absolute_time(self):
        engine = EventScheduler(start_time=10.0)
        fired = []
        engine.schedule_at(12.5, fired.append, "x")
        engine.run()
        assert fired == ["x"]
        assert engine.now == 12.5

    def test_negative_delay_rejected(self):
        engine = EventScheduler()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        engine = EventScheduler(start_time=5.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(4.0, lambda: None)

    def test_events_scheduled_during_run(self):
        engine = EventScheduler()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                engine.schedule(1.0, chain, depth + 1)

        engine.schedule(0.0, chain, 0)
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now == 3.0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        engine = EventScheduler()
        fired = []
        event = engine.schedule(1.0, fired.append, "x")
        engine.cancel(event)
        assert engine.run() == 0
        assert fired == []

    def test_step_skips_cancelled_head(self):
        engine = EventScheduler()
        fired = []
        first = engine.schedule(1.0, fired.append, "first")
        engine.schedule(2.0, fired.append, "second")
        engine.cancel(first)
        assert engine.step() is True
        assert fired == ["second"]
        assert engine.now == 2.0  # the skipped head never touched the clock
        assert engine.pending == 0


class TestRunBounds:
    def test_run_until_stops_and_advances_clock(self):
        engine = EventScheduler()
        fired = []
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(5.0, fired.append, "b")
        assert engine.run(until=3.0) == 1
        assert fired == ["a"]
        assert engine.now == 3.0  # clock advanced to `until`
        assert engine.run() == 1
        assert fired == ["a", "b"]

    def test_max_events(self):
        engine = EventScheduler()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        assert engine.run(max_events=3) == 3
        assert engine.pending == 2

    def test_processed_counter(self):
        engine = EventScheduler()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.processed == 2

    def test_step_on_empty_queue(self):
        assert EventScheduler().step() is False

    def test_max_events_with_until_advances_clock(self):
        engine = EventScheduler()
        engine.schedule(1.0, lambda: None)
        engine.schedule(5.0, lambda: None)
        assert engine.run(until=3.0, max_events=10) == 1
        assert engine.now == 3.0


class TestBatchedRunUntil:
    def test_executes_events_up_to_and_including_bound(self):
        engine = EventScheduler()
        fired = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t, fired.append, t)
        assert engine.run(until=2.0) == 2
        assert fired == [1.0, 2.0]
        assert engine.now == 2.0

    def test_advances_clock_past_drained_queue(self):
        engine = EventScheduler()
        assert engine.run(until=7.5) == 0
        assert engine.now == 7.5

    def test_skips_cancelled_in_batch(self):
        engine = EventScheduler()
        fired = []
        keep = engine.schedule_at(1.0, fired.append, "keep")
        drop = engine.schedule_at(2.0, fired.append, "drop")
        engine.cancel(drop)
        assert engine.run(until=10.0) == 1
        assert fired == ["keep"]
        assert keep.cancelled is False
        assert drop.cancelled is True

    def test_events_scheduled_during_batch_run(self):
        engine = EventScheduler()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                engine.schedule(1.0, chain, depth + 1)

        engine.schedule(0.0, chain, 0)
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
        engine.schedule(1.0, lambda: None)
        engine.run(until=4.0)
        with pytest.raises(SimulationError, match="never moves backwards"):
            engine.run(until=2.0)
        with pytest.raises(SimulationError, match="never moves backwards"):
            engine.run(until=2.0, max_events=1)
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
        engine = EventScheduler()
        for _ in range(100):
            engine.post(engine.now + 1.0, lambda: None)
            engine.run()
        assert engine.pending == 0
        assert engine.processed == 100

    def test_fired_event_releases_its_arguments(self):
        engine = EventScheduler()
        payload = _Payload()
        ref = weakref.ref(payload)
        engine.post(1.0, lambda obj: None, payload)
        del payload
        assert ref() is not None  # the heap entry keeps it alive
        engine.run()
        assert ref() is None

    def test_popped_cancelled_event_releases_its_arguments(self):
        engine = EventScheduler()
        payload = _Payload()
        ref = weakref.ref(payload)
        event = engine.schedule(1.0, lambda obj: None, payload)
        del payload
        engine.cancel(event)
        assert engine.run() == 0
        assert ref() is None

    def test_post_rejects_past_times(self):
        engine = EventScheduler(start_time=5.0)
        with pytest.raises(SimulationError):
            engine.post(4.0, lambda: None)

    def test_cancel_after_fire_is_a_true_noop(self):
        engine = EventScheduler()
        events = [engine.schedule(1.0, lambda: None) for _ in range(50)]
        engine.run()
        for event in events:
            engine.cancel(event)  # all already fired
        fired = []
        engine.schedule(1.0, fired.append, "after")
        assert engine.run() == 1
        assert fired == ["after"]
        assert engine.processed == 51

    def test_post_behaves_like_schedule_at(self):
        engine = EventScheduler()
        fired = []
        engine.post(2.0, fired.append, "b")
        engine.post(1.0, fired.append, "a")
        assert engine.run() == 2
        assert fired == ["a", "b"]


class TestProcessCounter:
    def test_reset_zeroes_total(self):
        reset_events_processed()
        engine = EventScheduler()
        engine.schedule(1.0, lambda: None)
        engine.run()
        add_events_processed(5)
        assert events_processed_total() == 6
        reset_events_processed()
        assert events_processed_total() == 0

    def test_step_counts_into_process_total(self):
        reset_events_processed()
        engine = EventScheduler()
        engine.schedule(1.0, lambda: None)
        assert engine.step() is True
        assert events_processed_total() == 1


class _ModelScheduler:
    """Reference model: a list scanned for its ``(time, seq)`` minimum."""

    def __init__(self):
        self.now = 0.0
        self.entries = []  # [time, seq, label, child_delay, cancelled]
        self.seq = 0
        self.processed = 0
        self.fired = []

    def add(self, time, label, child_delay):
        entry = [time, self.seq, label, child_delay, False]
        self.seq += 1
        self.entries.append(entry)
        return entry

    def run(self, until=inf, limit=inf):
        executed = 0
        while self.entries and executed < limit:
            entry = min(self.entries, key=lambda e: (e[0], e[1]))
            if entry[0] > until:
                break
            self.entries.remove(entry)
            if entry[4]:
                continue
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
    st.tuples(st.just("schedule"), _DELAYS, st.none() | _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 1000)),
    st.tuples(st.just("run-until"), _DELAYS),
    st.tuples(st.just("run-max"), st.integers(0, 4)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run")),
)


class TestAgainstReferenceModel:
    """Differential pin for the pop loop: whatever the heap layout, the
    scheduler must behave like a list popped in ``(time, seq)`` order."""

    @settings(max_examples=200)
    @given(st.lists(_OPS, max_size=40))
    def test_random_programs_agree(self, program):
        engine = EventScheduler()
        model = _ModelScheduler()
        fired = []
        handles = []  # (Event, model entry) per schedule() call

        def fire(label, child_delay):
            fired.append(label)
            if child_delay is not None:
                engine.post(engine.now + child_delay, fire, label + "'", None)

        for index, op in enumerate(program):
            label = str(index)
            if op[0] == "post":
                engine.post(engine.now + op[1], fire, label, op[2])
                model.add(model.now + op[1], label, op[2])
            elif op[0] == "schedule":
                event = engine.schedule(op[1], fire, label, op[2])
                entry = model.add(model.now + op[1], label, op[2])
                assert (event.time, event.seq) == (entry[0], entry[1])
                handles.append((event, entry))
            elif op[0] == "cancel":
                if handles:
                    event, entry = handles[op[1] % len(handles)]
                    engine.cancel(event)
                    entry[4] = True
                    assert event.cancelled is True
            elif op[0] == "run-until":
                bound = engine.now + op[1]
                assert engine.run(until=bound) == model.run(until=bound)
            elif op[0] == "run-max":
                assert engine.run(max_events=op[1]) == model.run(limit=op[1])
            elif op[0] == "step":
                assert engine.step() is (model.run(limit=1) == 1)
            else:
                assert engine.run() == model.run()
            assert fired == model.fired
            assert engine.now == model.now
            assert engine.pending == len(model.entries)
            assert engine.processed == model.processed
