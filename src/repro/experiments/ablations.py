"""Ablation experiments beyond the paper's tables.

- ``ablation-metric``: the Section 4.2 claim that the common-digits metric
  distinguishes neighbors better than prefix/suffix routing over arbitrary
  overlays, measured as lookup success under identical budgets.
- ``ablation-ds``: duplicate suppression on/off on *static* overlays
  (under perturbation the paper studies this in Figure 11).
- ``ablation-flows``: success/traffic as a function of the max_flows budget.
- ``ablation-tiebreak``: random vs deterministic tie-breaking.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.config import MPILConfig
from repro.experiments.base import mean, success_percent
from repro.experiments.registry import experiment
from repro.experiments.spec import Pipeline, RunContext
from repro.experiments.workloads import StaticRun, run_lookups, static_runs, static_sizes

METRICS = ("common-digits", "prefix", "suffix")


def _metric_measure(ctx: RunContext, built: None, metric: str) -> Iterable[tuple]:
    config = MPILConfig(max_flows=10, per_flow_replicas=5, metric=metric)
    seed = (ctx.seed, "metric", metric)
    replicas: list[int] = []
    lookups = []
    for run in static_runs(ctx, "power-law", static_sizes(ctx)[0], seed, config):
        replicas.extend(result.replica_count for result in run.insert_results)
        lookups.extend(run_lookups(run, 10, 5, seed))
    return [
        (
            metric,
            success_percent([lookup.success for lookup in lookups]),
            round(mean(replicas), 2),
            round(mean([lookup.traffic for lookup in lookups]), 2),
        )
    ]


@experiment(
    id="ablation-metric",
    title="Routing metric ablation on power-law overlays (Section 4.2 claim)",
    tags=("ablation", "static", "metric"),
)
def metric_spec() -> Pipeline:
    return Pipeline(
        columns=("metric", "lookup_success_%", "avg_insert_replicas", "avg_lookup_traffic"),
        key_columns=("metric",),
        cells=lambda ctx, built: METRICS,
        measure=_metric_measure,
        notes=(
            "prefix/suffix metrics cannot distinguish neighbors (nearly all "
            "tie at score 0), so under MPIL's tie-splitting they degenerate "
            "into flooding: comparable success at much higher traffic and "
            "replica cost; common-digits achieves it cheaply"
        ),
    )


def _ds_cells(ctx: RunContext, built: None) -> Iterator[tuple[str, bool]]:
    for family in ("power-law", "random"):
        for suppress in (True, False):
            yield family, suppress


def _ds_measure(ctx: RunContext, built: None, cell: tuple[str, bool]) -> Iterable[tuple]:
    family, suppress = cell
    config = MPILConfig(max_flows=30, per_flow_replicas=5, duplicate_suppression=suppress)
    inserts = [
        result
        for run in static_runs(
            ctx, family, static_sizes(ctx)[0], (ctx.seed, "ds", suppress), config
        )
        for result in run.insert_results
    ]
    return [
        (
            family,
            "on" if suppress else "off",
            round(mean([result.replica_count for result in inserts]), 2),
            round(mean([result.traffic for result in inserts]), 2),
            round(mean([result.duplicates for result in inserts]), 2),
        )
    ]


@experiment(
    id="ablation-ds",
    title="Duplicate suppression ablation (static insertion)",
    tags=("ablation", "static", "insertion"),
)
def ds_spec() -> Pipeline:
    return Pipeline(
        columns=("family", "ds", "avg_replicas", "avg_traffic", "avg_duplicates"),
        key_columns=("family", "ds"),
        cells=_ds_cells,
        measure=_ds_measure,
        notes="DS trades replicas/coverage for traffic on static overlays",
    )


def _flows_build(ctx: RunContext) -> list[StaticRun]:
    return list(static_runs(ctx, "power-law", static_sizes(ctx)[0], ctx.seed))


def _flows_measure(
    ctx: RunContext, runs: list[StaticRun], max_flows: int
) -> Iterable[tuple]:
    lookups = [
        lookup
        for run in runs
        for lookup in run_lookups(run, max_flows, 3, (ctx.seed, "flows"))
    ]
    return [
        (
            max_flows,
            success_percent([lookup.success for lookup in lookups]),
            round(mean([lookup.traffic for lookup in lookups]), 2),
            round(mean([lookup.flows_created for lookup in lookups]), 2),
        )
    ]


@experiment(
    id="ablation-flows",
    title="Lookup success vs max_flows budget (power-law overlays)",
    tags=("ablation", "static", "lookup"),
)
def flows_spec() -> Pipeline:
    return Pipeline(
        columns=("max_flows", "success_%", "avg_traffic", "avg_actual_flows"),
        key_columns=("max_flows",),
        build=_flows_build,
        cells=lambda ctx, built: (1, 2, 5, 10, 20, 30),
        measure=_flows_measure,
        notes="diminishing returns in the flow budget; traffic grows with it",
    )


def _tiebreak_measure(ctx: RunContext, built: None, tie_break: str) -> Iterable[tuple]:
    config = MPILConfig(max_flows=10, per_flow_replicas=5, tie_break=tie_break)
    seed = (ctx.seed, "tiebreak", tie_break)
    lookups = [
        lookup
        for run in static_runs(ctx, "power-law", static_sizes(ctx)[0], seed, config)
        for lookup in run_lookups(run, 10, 5, seed)
    ]
    return [
        (
            tie_break,
            success_percent([lookup.success for lookup in lookups]),
            round(mean([lookup.traffic for lookup in lookups]), 2),
        )
    ]


@experiment(
    id="ablation-tiebreak",
    title="Tie-breaking policy ablation (power-law overlays)",
    tags=("ablation", "static", "routing"),
)
def tiebreak_spec() -> Pipeline:
    return Pipeline(
        columns=("tie_break", "success_%", "avg_traffic"),
        key_columns=("tie_break",),
        cells=lambda ctx, built: ("random", "lowest-id"),
        measure=_tiebreak_measure,
        notes="success should be insensitive to the tie-break policy",
    )
