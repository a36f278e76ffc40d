"""Wall-clock timing calibrated against a reference kernel.

The boxes this benchmark runs on change speed under it: a fixed
pure-Python loop was measured at 18.5 ms, 24 ms and 38 ms in consecutive
multi-second stretches of one 40 s window, and CPU time moves with wall
time, so neither a median over passes nor ``process_time`` removes it
(ten 10-second medians of one unchanged workload spread 12 % between
quartiles).  Every timed region is therefore bracketed by a reference
kernel, and its duration is reported as *seconds at reference speed*:

    calibrated = raw / (mean(kernel before, kernel after) / REFERENCE_S)

The same ten medians then spread 2.4 %.  Raw walls are kept beside the
calibrated ones in every record.

The kernel is half integer arithmetic and half lookups in a dict too
large for the cache, because the host slows in two ways and the program
feels both: against 8-second medians of ``fig11`` an arithmetic-only
kernel left 4.7 % between quartiles and a lookup-only one 3.5 %, against
``tab1`` 3.8 % and 6.3 %; the blend stays near the better of the two on
both.  A change that moves work into numpy or I/O scales a little
differently again, which is one more reason the raw walls stay in the
record.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Sequence

#: nominal duration of :func:`reference_kernel` — what it takes on the
#: 2-core reference box in its usual state.  Only ratios to it matter.
REFERENCE_S = 0.0160

_ARITHMETIC_STEPS = 120_000
_TABLE_SIZE = 300_000
#: ~20 MB of dict and ints: misses the cache the way the program's
#: replica directory, score memo and per-node tables do
_TABLE = {key: key for key in range(_TABLE_SIZE)}
_PROBES = [(step * 7919) % _TABLE_SIZE for step in range(20_000)]

#: a kernel reading younger than this brackets the next region too
_FRESH_S = 0.002


def reference_kernel() -> float:
    """Seconds a fixed interpreter- and memory-bound loop takes right now."""
    started = time.perf_counter()
    total = 0
    for step in range(_ARITHMETIC_STEPS):
        total += step * step
    table = _TABLE
    for key in _PROBES:
        total += table[key]
    return time.perf_counter() - started


class SpeedMeter:
    """Times regions and divides out the host's speed at that moment."""

    def __init__(self) -> None:
        #: every kernel reading taken, for the record's provenance
        self.readings: list[float] = []
        self._last_kernel = self._read()
        self._last_at = time.perf_counter()

    def _read(self) -> float:
        self.readings.append(reference_kernel())
        return self.readings[-1]

    def timed(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float, float]:
        """Run ``fn`` and return ``(result, raw seconds, calibrated seconds)``."""
        if time.perf_counter() - self._last_at > _FRESH_S:
            self._last_kernel = self._read()
        before = self._last_kernel
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - started
        after = self._read()
        self._last_kernel = after
        self._last_at = time.perf_counter()
        speed = ((before + after) / 2.0) / REFERENCE_S
        return result, raw, raw / speed


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
