"""Open-loop arrival processes.

Open-loop means arrival times are fixed before the run: a request is
issued at its scheduled instant whether or not earlier requests have
completed, so queries pile up in flight when the overlay slows down —
the regime that makes tail latency (p95/p99) meaningful.  All times are
offsets in ``[0, duration)`` from the service start.

Determinism contract: arrivals are a pure function of ``(rng stream,
rate, duration)``.  The service experiments derive the stream from the
run seed *without* a protocol-variant label, so every variant in a cell
faces an identical arrival sequence and their percentile columns are
comparable point by point.
"""

from __future__ import annotations

import math

from repro.errors import ExperimentError

ARRIVAL_KINDS = ("poisson", "fixed")


def check_finite(**values: float) -> None:
    """One error for a traffic knob that is ``inf`` or ``nan``: an infinite
    rate makes every exponential gap 0.0 and an infinite duration never
    ends, so either would generate arrivals until memory runs out."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ExperimentError(f"service {name} must be finite, got {value!r}")


def _check_positive(rate: float, duration: float) -> tuple[float, float]:
    rate = float(rate)
    duration = float(duration)
    check_finite(rate=rate, duration=duration)
    if not rate > 0:
        raise ExperimentError(f"arrival rate must be positive, got {rate!r}")
    if not duration > 0:
        raise ExperimentError(f"service duration must be positive, got {duration!r}")
    return rate, duration


def fixed_arrivals(rate: float, duration: float) -> list[float]:
    """Evenly spaced arrivals at ``rate`` per second over ``duration``.

    The first request lands one full interval in (not at t=0), so a rate
    of 1/s over 3s yields arrivals at 1.0 and 2.0 — the deterministic
    load shape for regression baselines.
    """
    rate, duration = _check_positive(rate, duration)
    interval = 1.0 / rate
    count = math.ceil(duration * rate) - 1
    return [interval * (i + 1) for i in range(max(0, count))]


def poisson_arrivals(rng, rate: float, duration: float) -> list[float]:
    """Poisson arrivals: i.i.d. exponential inter-arrival gaps at ``rate``.

    ``rng`` is a ``random.Random``-compatible stream (use
    :func:`repro.sim.rng.derive_rng` so replicates are reproducible).
    """
    rate, duration = _check_positive(rate, duration)
    times: list[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        times.append(t)
        t += rng.expovariate(rate)
    return times


def generate_arrivals(kind: str, rng, rate: float, duration: float) -> list[float]:
    """Dispatch on the arrival-process name (``poisson`` or ``fixed``)."""
    if kind == "poisson":
        return poisson_arrivals(rng, rate, duration)
    if kind == "fixed":
        return fixed_arrivals(rate, duration)
    raise ExperimentError(
        f"unknown arrival process {kind!r}; choose from {list(ARRIVAL_KINDS)}"
    )
