"""Run budgets: the scale ladder's wall-clock and memory guard rails.

The ``large`` rung (and any registered rung that sets one) carries a
:class:`~repro.experiments.scales.BudgetSpec`; a run that blows past it
should fail fast with a one-line :class:`~repro.errors.ExperimentError`
instead of grinding the machine for hours or getting OOM-killed halfway
through a sweep.  :class:`BudgetGuard` is the enforcement:
:meth:`~repro.experiments.spec.ExperimentSpec.run` checks it at every
pipeline stage boundary (after the build stage and after each measured
cell), which keeps the overhead to one clock read plus one ``/proc`` read
per cell — invisible next to the cells themselves — while bounding how far
past the ceiling a run can coast to one stage.

Nothing is persisted before a run completes (the result store writes a
replicate only after ``run()`` returns), so a budget abort leaves no
partial artifacts behind.

RSS comes from :func:`repro.util.rss.resident_bytes` — the *current*
resident set, which a per-run check needs; ``ru_maxrss`` is the
process-lifetime peak and would keep tripping a rung forever once any
earlier run spiked.  On platforms without procfs the memory ceiling is not
enforced (the reader returns ``None``), and the run's metrics blob and
manifest entry record ``"memory_budget_enforced": false``; the wall-clock
ceiling always is.
"""

from __future__ import annotations

import time

from repro.errors import ExperimentError
from repro.experiments.scales import BudgetSpec
from repro.util.rss import resident_bytes


class BudgetGuard:
    """Enforces one :class:`BudgetSpec` over one experiment run.

    Construct when the run starts (the guard timestamps itself), then call
    :meth:`check` at stage boundaries.
    """

    def __init__(self, scale_name: str, budget: BudgetSpec):
        self.scale_name = scale_name
        self.budget = budget
        self._started = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def check(self, stage: str) -> None:
        """Raise a one-line :class:`ExperimentError` if either ceiling is
        crossed; ``stage`` names the boundary for the message."""
        budget = self.budget
        if budget.unlimited:
            return
        if budget.max_wall_s is not None:
            elapsed = self.elapsed()
            if elapsed > budget.max_wall_s:
                raise ExperimentError(
                    f"scale {self.scale_name!r} wall-clock budget exceeded "
                    f"after {stage}: {elapsed:.1f}s > max_wall_s="
                    f"{budget.max_wall_s:g}s"
                )
        if budget.max_rss_mb is not None:
            rss = resident_bytes()
            if rss is not None and rss > budget.max_rss_mb * (1 << 20):
                raise ExperimentError(
                    f"scale {self.scale_name!r} memory budget exceeded "
                    f"after {stage}: {rss / (1 << 20):.1f} MiB resident > max_rss_mb="
                    f"{budget.max_rss_mb:g} MiB"
                )
