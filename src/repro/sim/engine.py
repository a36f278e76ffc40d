"""A minimal heap-based discrete-event scheduler.

One heap of ``(time, seq, callback, args, handle)`` tuples and one loop that
pops it.  ``seq`` is unique, so the heap compares ``(time, seq)`` in C and
nothing to the right of it; ties in time are broken by insertion order,
which makes runs deterministic.  Cancellation is lazy: :meth:`EventScheduler.cancel`
flags the handle and the loop skips a flagged entry when it pops it.

:meth:`EventScheduler.post` is the hot-path entry: it schedules a callback
without materialising an :class:`Event` handle.  The process-wide event
total (:func:`events_processed_total`) is credited once per
:meth:`EventScheduler.run`/``step`` call, not once per event.

An earlier version kept callbacks and arguments in freelist-recycled slot
arrays beside ``(time, seq, slot)`` heap entries, with two sequence-number
sets for cancellation.  Measured against this plain heap (medians of 5,
three rounds) it was the slower one — ``post``+``step`` at depth 1025:
1300-1700 vs 1020-1200 ns; ``post`` x 20000 then ``run``: 1540-2140 vs
1055-1100 ns/event; constructor: 380-400 vs 205-210 ns — so the slots are
gone on purpose.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: events executed in this process by *all* scheduler instances and
#: synchronous drivers since start or the last :func:`reset_events_processed`.
#: Experiments create many short-lived schedulers (one per timed lookup), so
#: per-instance ``processed`` undercounts a whole run;
#: :func:`repro.experiments.runtime.execute_task` zeroes this before each
#: measured run and reads it after, for the manifest's event count.
_events_processed = 0


def events_processed_total() -> int:
    """Events executed in this process, summed over every scheduler and
    synchronous driver, since start or the last :func:`reset_events_processed`."""
    return _events_processed


def add_events_processed(count: int) -> None:
    """Credit ``count`` simulation events to the process-wide total.

    The synchronous drivers (static MPIL message propagation, per-hop
    Pastry routing) do discrete-event work without an
    :class:`EventScheduler`; they tally locally and credit the total once
    per request so ``events_processed_total`` reflects *all* simulation
    work, not only scheduler callbacks.
    """
    global _events_processed
    _events_processed += count


def reset_events_processed() -> None:
    """Zero the process-wide event total."""
    global _events_processed
    _events_processed = 0


class Event:
    """A scheduled callback handle.  Returned by :meth:`EventScheduler.schedule`.

    Attributes
    ----------
    time:
        Absolute simulation time at which the callback fires.
    seq:
        Insertion sequence number (the deterministic tie-breaker).
    cancelled:
        True once :meth:`EventScheduler.cancel` has been called; cancelled
        events are skipped when their time arrives.
    """

    __slots__ = ("time", "seq", "cancelled")

    def __init__(self, time: float, seq: int):
        self.time = time
        self.seq = seq
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6g}, seq={self.seq}, {state})"


class EventScheduler:
    """Discrete-event scheduler with deterministic tie-breaking.

    >>> eng = EventScheduler()
    >>> fired = []
    >>> _ = eng.schedule(2.0, fired.append, "b")
    >>> _ = eng.schedule(1.0, fired.append, "a")
    >>> eng.run()
    2
    >>> fired
    ['a', 'b']
    >>> eng.now
    2.0
    """

    __slots__ = ("_now", "_heap", "_seq", "_processed")

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        #: heap of (time, seq, callback, args, handle) — compared
        #: left-to-right in C; seq is unique, so nothing right of it ever
        #: participates in a comparison.  ``handle`` is the Event for
        #: schedule()/schedule_at() entries and None for post() entries.
        self._heap: List[
            Tuple[float, int, Callable[..., None], tuple, Optional[Event]]
        ] = []
        self._seq = 0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still on the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    def post(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute time ``time`` without
        creating an :class:`Event` handle (the hot path for fire-and-forget
        events, which is every message in the timed drivers)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (float(time), seq, callback, args, None))

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(float(time), seq)
        heappush(self._heap, (event.time, seq, callback, args, event))
        return event

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` time units."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (no-op if it already fired: the heap
        entry is gone, so nothing is left to read the flag)."""
        event.cancelled = True

    def _run(self, until: float, limit: float) -> int:
        """The one pop loop: execute events in ``(time, seq)`` order while
        the head's time is ``<= until`` and fewer than ``limit`` have run,
        skipping cancelled entries.  Returns the number executed and
        credits it to both counters once."""
        heap = self._heap
        executed = 0
        while heap and executed < limit and heap[0][0] <= until:
            time, _seq, callback, args, handle = heappop(heap)
            if handle is not None and handle.cancelled:
                continue
            self._now = time
            executed += 1
            callback(*args)
        self._processed += executed
        add_events_processed(executed)
        return executed

    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty."""
        return self._run(inf, 1) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.  Returns the number executed.

        When ``until`` is given, the clock is advanced to ``until`` even if
        the queue drains earlier, so repeated ``run(until=...)`` calls form a
        monotonic timeline.  A long-lived windowed driver calling with
        out-of-order bounds would otherwise silently corrupt its timeline,
        so a bound earlier than the current time raises
        :class:`~repro.errors.SimulationError` and leaves the clock
        untouched (it never moves backwards).
        """
        limit = inf if max_events is None else max_events
        if until is None:
            return self._run(inf, limit)
        if until < self._now:
            raise SimulationError(
                f"cannot run until t={until} before current time t={self._now}; "
                f"the simulation clock never moves backwards"
            )
        executed = self._run(until, limit)
        if until > self._now:
            self._now = float(until)
        return executed
