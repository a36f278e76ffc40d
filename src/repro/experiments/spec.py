"""Declarative experiment specs: a dataclass pipeline of pluggable stages.

Every experiment in this reproduction has the same skeleton: build some
shared state once (an overlay testbed, a batch of static runs, or nothing
at all for the closed-form analyses), enumerate the sweep cells (overlay
families x sizes, perturbation severities, protocol parameters, ...), and
measure each cell into rows of an
:class:`~repro.experiments.base.ExperimentResult`.  :class:`ExperimentSpec`
makes that skeleton explicit: a :class:`Pipeline` of three pluggable stage
callables plus the result schema, and metadata (tags, paper figure,
scenario family) the registry and CLI can list and filter.

Stages
------

- ``build(ctx)`` — the overlay/testbed stage: construct whatever state
  every cell shares (e.g. :func:`repro.experiments.perturbed.build_testbed`
  output).  Runs exactly once per ``run()``.
- ``cells(ctx, built)`` — the sweep stage: yield one value per result
  group (a perturbation severity, an ``(overlay family, size)`` pair, a
  protocol setting...).
- ``measure(ctx, built, cell)`` — the workload/protocol stage: run the
  cell's simulations and yield finished result rows.

``notes`` may be a literal string or a ``(ctx, built) -> str`` callable
for experiments whose caption depends on scale-derived values.

:meth:`ExperimentSpec.run` is the **single seed-validation choke point**
for the whole experiment layer: the registry, the sweep runner, and the
``repro.api`` facade all execute specs through it, so the int-seed
contract is enforced in exactly one place.

Specs come from two places: every experiment module registers one through
the :func:`repro.experiments.registry.experiment` decorator, and
:mod:`repro.experiments.compose` builds them from TOML/dict descriptions
at runtime — no module required.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable, Optional, Union

from repro.errors import ExperimentError
from repro.experiments.base import DEFAULT_STAT_SUFFIXES, ExperimentResult
from repro.experiments.budget import BudgetGuard
from repro.experiments.scales import Scale, get_scale
from repro.telemetry import Telemetry, use as telemetry_scope
from repro.util.rss import resident_bytes

#: the overlay/testbed stage: shared state built once per run
BuildStage = Callable[["RunContext"], Any]
#: the sweep stage: one value per result group
CellsStage = Callable[["RunContext", Any], Iterable[Any]]
#: the workload/protocol stage: rows for one cell
MeasureStage = Callable[["RunContext", Any, Any], Iterable[tuple]]
#: result caption: literal, or derived from the built state
NotesStage = Union[str, Callable[["RunContext", Any], str]]


@dataclasses.dataclass(frozen=True)
class RunContext:
    """Everything a stage may depend on besides the built state."""

    scale: Scale
    seed: int


def validate_seed(seed: object) -> int:
    """The experiment layer's one seed check (bools are rejected).

    Every derived random stream hashes ``repr(seed)``, so ``0``, ``"0"``,
    and ``False`` would silently produce three different trajectories —
    and the sweep runner fans seeds out to worker processes, where such a
    mix-up would corrupt a whole replicate set instead of one run.
    """
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ExperimentError(
            f"seed must be an int, got {type(seed).__name__} {seed!r}"
        )
    return seed


def _build_nothing(ctx: RunContext) -> Any:
    return None


def _single_cell(ctx: RunContext, built: Any) -> Iterable[Any]:
    return (None,)


@dataclasses.dataclass(frozen=True)
class Pipeline:
    """The pluggable stage bundle of one experiment.

    Only ``columns`` and ``measure`` are mandatory: an experiment with no
    shared state skips ``build``, and one without a sweep axis runs its
    single implicit cell.
    """

    columns: tuple[str, ...]
    measure: MeasureStage
    build: BuildStage = _build_nothing
    cells: CellsStage = _single_cell
    notes: NotesStage = ""
    key_columns: tuple[str, ...] = ()
    #: aggregation statistics derived per varying numeric column when
    #: replicates of this experiment are merged (see
    #: :func:`repro.experiments.store.aggregate_results`); service-mode
    #: pipelines extend the default triple with ``_p50/_p95/_p99``
    stat_suffixes: tuple[str, ...] = DEFAULT_STAT_SUFFIXES

    def __post_init__(self) -> None:
        if not self.columns:
            raise ExperimentError("a pipeline needs at least one result column")
        unknown = set(self.key_columns) - set(self.columns)
        if unknown:
            raise ExperimentError(
                f"key_columns {sorted(unknown)} are not in columns {list(self.columns)}"
            )
        if not self.stat_suffixes:
            raise ExperimentError("a pipeline needs at least one stat suffix")


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment: metadata plus its stage pipeline."""

    experiment_id: str
    title: str
    pipeline: Pipeline
    #: free-form labels the CLI/api can filter on (``list --tags ext``)
    tags: tuple[str, ...] = ()
    #: the paper artifact this reproduces ("Figure 9", "Table 1"), if any
    figure: Optional[str] = None
    #: the perturbation-scenario family this experiment sweeps, if any
    #: (joined against the catalogue in ``repro.perturbation.scenario``)
    scenario_family: Optional[str] = None
    #: optional hook applied to the resolved scale before each run — how a
    #: composed spec's ``[scale]`` table customises whatever rung the
    #: caller picked (see :mod:`repro.experiments.compose`)
    scale_transform: Optional[Callable[[Scale], Scale]] = None

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ExperimentError("an experiment spec needs a non-empty id")
        if not self.title:
            raise ExperimentError(
                f"experiment {self.experiment_id!r} needs a non-empty title"
            )

    def run(
        self,
        scale: Union[str, Scale] = "default",
        seed: int = 0,
        telemetry: Optional[Telemetry] = None,
    ) -> ExperimentResult:
        """Execute the pipeline: build once, measure every cell, collect rows.

        The resolved scale's :class:`~repro.experiments.scales.BudgetSpec`
        is enforced at every stage boundary — see
        :mod:`repro.experiments.budget`.  Unbudgeted scales (every preset
        up to ``paper``) pay one no-op call per cell.

        ``telemetry`` is installed as the ambient handle for the run (see
        :mod:`repro.telemetry`); ``None`` gets a fresh spans-off handle, so
        every run's metrics are scoped to it.  The registry's per-cell
        snapshots land on ``result.metrics`` (run metadata, never part of
        the artifact bytes).
        """
        resolved = get_scale(scale)
        if self.scale_transform is not None:
            resolved = self.scale_transform(resolved)
        ctx = RunContext(scale=resolved, seed=validate_seed(seed))
        guard = BudgetGuard(resolved.name, resolved.budget)
        pipeline = self.pipeline
        handle = telemetry if telemetry is not None else Telemetry()
        with telemetry_scope(handle):
            built = pipeline.build(ctx)
            guard.check("the build stage")
            rows: list[tuple] = []
            cell_snapshots: list[dict] = []
            for index, cell in enumerate(pipeline.cells(ctx, built)):
                rows.extend(pipeline.measure(ctx, built, cell))
                guard.check(f"cell {index}")
                cell_snapshots.append(handle.metrics.snapshot())
            notes = (
                pipeline.notes(ctx, built) if callable(pipeline.notes) else pipeline.notes
            )
        metrics_blob = {
            "experiment": self.experiment_id,
            "scale": resolved.name,
            "seed": ctx.seed,
            "cells": len(cell_snapshots),
            # snapshots are cumulative at each cell boundary; the last one
            # is the whole run
            "per_cell": cell_snapshots,
            "final": cell_snapshots[-1] if cell_snapshots else handle.metrics.snapshot(),
        }
        if handle.spans is not None:
            metrics_blob["spans"] = {
                "recorded": len(handle.spans),
                "dropped": handle.spans.dropped,
            }
        if resolved.budget.max_rss_mb is not None and resident_bytes() is None:
            # the guard could not read this process's resident set
            metrics_blob["memory_budget_enforced"] = False
        return ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            columns=pipeline.columns,
            rows=rows,
            notes=notes,
            scale=resolved.name,
            key_columns=pipeline.key_columns,
            stat_suffixes=pipeline.stat_suffixes,
            metrics=metrics_blob,
        )

    def matches_tags(self, tags: Iterable[str]) -> bool:
        """True iff every requested tag is on this spec."""
        return set(tags) <= set(self.tags)
