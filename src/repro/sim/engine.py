"""A minimal heap-based discrete-event scheduler.

One heap of ``(time, seq, callback, args)`` tuples and one loop that pops
it.  ``seq`` is unique, so the heap compares ``(time, seq)`` in C and
nothing to the right of it; ties in time are broken by insertion order,
which makes runs deterministic.  :meth:`EventScheduler.post` is the one
way to schedule; there is no cancellation.  The process-wide event total
(:func:`events_processed_total`) is credited once per
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
from math import inf, isnan
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: events executed in this process by *all* scheduler instances and
#: synchronous drivers since start or the last :func:`reset_events_processed`.
#: Experiments create many short-lived schedulers (one per timed lookup);
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


class EventScheduler:
    """Discrete-event scheduler with deterministic tie-breaking.

    Times are compared as ``not time >= now``, so a ``nan`` start time,
    event time or ``until`` bound is refused like a time in the past
    instead of stalling the heap.

    >>> eng = EventScheduler()
    >>> fired = []
    >>> eng.post(2.0, fired.append, "b")
    >>> eng.post(1.0, fired.append, "a")
    >>> eng.run()
    2
    >>> fired
    ['a', 'b']
    >>> eng.now
    2.0
    """

    __slots__ = ("_now", "_heap", "_seq")

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        if isnan(self._now):
            raise SimulationError("cannot start a scheduler at t=nan")
        #: heap of (time, seq, callback, args) — compared left-to-right in
        #: C; seq is unique, so nothing right of it ever participates in a
        #: comparison
        self._heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still on the heap."""
        return len(self._heap)

    def post(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (float(time), seq, callback, args))

    def _run(self, until: float) -> int:
        """The pop loop: execute events in ``(time, seq)`` order while the
        head's time is ``<= until``.  Returns the number executed and
        credits it to the process-wide total once."""
        heap = self._heap
        executed = 0
        while heap and heap[0][0] <= until:
            time, _seq, callback, args = heappop(heap)
            self._now = time
            executed += 1
            callback(*args)
        add_events_processed(executed)
        return executed

    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty."""
        heap = self._heap
        if not heap:
            return False
        time, _seq, callback, args = heappop(heap)
        self._now = time
        callback(*args)
        add_events_processed(1)
        return True

    def run(self, until: Optional[float] = None) -> int:
        """Run events until the queue drains or ``until`` is reached.
        Returns the number executed.

        When ``until`` is given, the clock is advanced to ``until`` even if
        the queue drains earlier, so repeated ``run(until=...)`` calls form a
        monotonic timeline.  A long-lived windowed driver calling with
        out-of-order bounds would otherwise silently corrupt its timeline,
        so a bound earlier than the current time (or ``nan``) raises
        :class:`~repro.errors.SimulationError` and leaves the clock
        untouched (it never moves backwards).
        """
        if until is None:
            return self._run(inf)
        if not until >= self._now:
            raise SimulationError(
                f"cannot run until t={until} before current time t={self._now}; "
                f"the simulation clock never moves backwards"
            )
        executed = self._run(until)
        if until > self._now:
            self._now = float(until)
        return executed
