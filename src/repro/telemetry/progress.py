"""Live progress rendering for sweeps and service runs.

Everything here is presentation: lines are *formatted* from task counts
and result rows, never fed back into the simulation, so nothing in this
module can perturb a run.  :class:`ProgressMeter` is the
one telemetry component that reads the wall clock (``time.monotonic``,
for the live events/sec rate on sweep progress lines) — it is therefore
the only telemetry module on the DET003 allowlist, and nothing it
computes is ever persisted into artifacts or telemetry blobs.
"""

from __future__ import annotations

import time


class ProgressMeter:
    """Tracks sweep completion and a live events/sec rate for display."""

    def __init__(self, total_tasks: int) -> None:
        self.total_tasks = total_tasks
        self.done = 0
        self.events = 0
        self._started = time.monotonic()

    def task_finished(self, events_processed: int) -> None:
        self.done += 1
        self.events += events_processed

    def line(self, label: str = "") -> str:
        """One progress line: tasks done, cumulative events/sec."""
        elapsed = time.monotonic() - self._started
        rate = self.events / elapsed if elapsed > 0 else 0.0
        parts = [f"[{self.done}/{self.total_tasks}]"]
        if label:
            parts.append(label)
        parts.append(f"done={self.done}")
        if self.events:
            parts.append(f"{format_rate(rate)} events/s")
        return " ".join(parts)


def format_rate(rate: float) -> str:
    """Compact rate rendering: ``532``, ``12.4k``, ``3.1M``."""
    if rate >= 1e6:
        return f"{rate / 1e6:.1f}M"
    if rate >= 1e3:
        return f"{rate / 1e3:.1f}k"
    return f"{rate:.0f}"


def service_window_line(
    cell: str,
    variant: str,
    window_index: int,
    arrivals: int,
    success_rate: float,
    p99: float,
    in_flight: int,
) -> str:
    """One line per service window, rendered from its result row; ``cell``
    names the row's sweep cell (``outage_severity=0.5``)."""
    return "  ".join(
        [
            f"window {window_index:>3d}",
            cell,
            f"{variant:<15s}",
            f"arrivals={arrivals}",
            f"ok={success_rate:.1f}%",
            f"p99={p99:g}",
            f"in-flight={in_flight}",
        ]
    )
