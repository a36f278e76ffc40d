"""The benchmark-regression gate: fresh BENCH results vs a committed baseline.

``benchmarks/baseline.json`` records, per experiment, the events/sec the
repository last committed to.  :func:`check_regressions` compares fresh
:class:`~repro.perf.profiler.BenchResult` measurements against it and
returns one :class:`Regression` per experiment whose throughput fell more
than ``tolerance`` (default 20%) below baseline.  CI runs this through
``mpil-experiments perf ... --check benchmarks/baseline.json`` and fails
the build on any finding; after an intentional performance change, rewrite
the baseline with ``--write-baseline benchmarks/baseline.json`` and commit
the diff.

Event-count changes are *not* regressions (optimisations legitimately
reshape what a run executes); they are surfaced on the report entry so a
reviewer can see when baseline and measurement are counting different
work.

Baselines are keyed per rung: entries sit under
``<experiment_id>@<scale>`` so one file can gate several ladder rungs at
once (``fig9@smoke`` and ``fig9@large`` hold different floors).
Separately from throughput floors, :func:`check_budgets` compares each
measurement against the budget its scale declared — a budgeted rung whose
measured wall clock or peak RSS exceeds the ceiling fails the bench gate
even if its events/sec look fine.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Iterable, Mapping, Union

from repro.errors import ExperimentError
from repro.perf.profiler import BenchResult

#: bumped on any incompatible baseline.json layout change; version 2
#: introduced per-rung ``<id>@<scale>`` entry keys
BASELINE_SCHEMA_VERSION = 2


@dataclasses.dataclass(frozen=True)
class BaselineEntry:
    """One experiment's committed reference numbers."""

    events_per_sec: float
    events_processed: int
    wall_clock_best: float

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class Regression:
    """One experiment whose measured throughput fell below tolerance."""

    experiment_id: str
    baseline_events_per_sec: float
    measured_events_per_sec: float
    tolerance: float
    events_count_changed: bool

    @property
    def ratio(self) -> float:
        """measured / baseline (1.0 = exactly baseline, lower = slower)."""
        if self.baseline_events_per_sec == 0:
            return 1.0
        return self.measured_events_per_sec / self.baseline_events_per_sec

    def describe(self) -> str:
        note = " [event count changed]" if self.events_count_changed else ""
        return (
            f"{self.experiment_id}: {self.measured_events_per_sec:.1f} events/s is "
            f"{(1.0 - self.ratio) * 100:.1f}% below the baseline "
            f"{self.baseline_events_per_sec:.1f} "
            f"(tolerance {self.tolerance * 100:.0f}%){note}"
        )


def load_baseline(path: Union[str, pathlib.Path]) -> dict[str, BaselineEntry]:
    """Read a committed baseline file into per-entry reference numbers,
    keyed ``<id>@<scale>``."""
    path = pathlib.Path(path)
    if not path.exists():
        raise ExperimentError(f"no baseline file at {path}")
    payload = json.loads(path.read_text())
    version = int(payload.get("schema_version", 0))
    if version != BASELINE_SCHEMA_VERSION:
        raise ExperimentError(
            f"baseline schema version {version} unsupported "
            f"(this build reads version {BASELINE_SCHEMA_VERSION})"
        )
    entries: dict[str, BaselineEntry] = {}
    for experiment_id, entry in payload["entries"].items():
        entries[experiment_id] = BaselineEntry(
            events_per_sec=float(entry["events_per_sec"]),
            events_processed=int(entry["events_processed"]),
            wall_clock_best=float(entry["wall_clock_best"]),
        )
    return entries


def write_baseline(
    results: Iterable[BenchResult],
    path: Union[str, pathlib.Path],
    scale: str,
) -> pathlib.Path:
    """Write (or overwrite) a version-2 baseline file from fresh bench
    results, one ``<id>@<scale>`` entry per measurement; ``scale`` is the
    informational top-level label (the rung, or a comma list of rungs)."""
    entries = {
        f"{result.experiment_id}@{result.scale}": BaselineEntry(
            events_per_sec=result.events_per_sec,
            events_processed=result.events_processed,
            wall_clock_best=result.wall_clock_best,
        ).to_dict()
        for result in results
    }
    if not entries:
        raise ExperimentError("cannot write a baseline from zero bench results")
    payload = {
        "schema_version": BASELINE_SCHEMA_VERSION,
        "scale": scale,
        "entries": entries,
    }
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def check_regressions(
    results: Iterable[BenchResult],
    baseline: Union[str, pathlib.Path, Mapping[str, BaselineEntry]],
    tolerance: float = 0.2,
) -> list[Regression]:
    """Regressions among ``results``, per the committed ``baseline``.

    An experiment regresses when its measured events/sec is more than
    ``tolerance`` below the baseline value.  Experiments missing from the
    baseline are skipped (they gate nothing until the baseline is
    refreshed to include them).
    """
    if not 0.0 <= tolerance < 1.0:
        raise ExperimentError(f"tolerance must be in [0, 1), got {tolerance}")
    if not isinstance(baseline, Mapping):
        baseline = load_baseline(baseline)
    regressions: list[Regression] = []
    for result in results:
        entry = baseline.get(f"{result.experiment_id}@{result.scale}")
        if entry is None:
            continue
        floor = entry.events_per_sec * (1.0 - tolerance)
        if result.events_per_sec < floor:
            regressions.append(
                Regression(
                    experiment_id=result.experiment_id,
                    baseline_events_per_sec=entry.events_per_sec,
                    measured_events_per_sec=result.events_per_sec,
                    tolerance=tolerance,
                    events_count_changed=(
                        result.events_processed != entry.events_processed
                    ),
                )
            )
    return regressions


@dataclasses.dataclass(frozen=True)
class BudgetViolation:
    """One measurement that exceeded its scale's declared budget."""

    experiment_id: str
    scale: str
    resource: str  #: ``"wall clock"`` or ``"peak RSS"``
    measured: float
    ceiling: float
    unit: str

    def describe(self) -> str:
        return (
            f"{self.experiment_id}@{self.scale}: {self.resource} "
            f"{self.measured:.1f}{self.unit} exceeds the scale's budget of "
            f"{self.ceiling:g}{self.unit}"
        )


def check_budgets(results: Iterable[BenchResult]) -> list[BudgetViolation]:
    """Measurements that blew their scale's budget ceilings.

    Uses the budget the profiler recorded into each
    :class:`~repro.perf.profiler.BenchResult`: mean wall clock against
    ``max_wall_s`` and observed peak RSS against ``max_rss_mb``.
    Unbudgeted scales (and version-1 BENCH files) gate nothing.
    """
    violations: list[BudgetViolation] = []
    for result in results:
        if (
            result.budget_max_wall_s is not None
            and result.wall_clock_mean > result.budget_max_wall_s
        ):
            violations.append(
                BudgetViolation(
                    experiment_id=result.experiment_id,
                    scale=result.scale,
                    resource="wall clock",
                    measured=result.wall_clock_mean,
                    ceiling=result.budget_max_wall_s,
                    unit="s",
                )
            )
        if (
            result.budget_max_rss_mb is not None
            and result.peak_rss_mb is not None
            and result.peak_rss_mb > result.budget_max_rss_mb
        ):
            violations.append(
                BudgetViolation(
                    experiment_id=result.experiment_id,
                    scale=result.scale,
                    resource="peak RSS",
                    measured=result.peak_rss_mb,
                    ceiling=result.budget_max_rss_mb,
                    unit="MiB",
                )
            )
    return violations
