"""Service-mode experiments: sustained open-loop traffic with tail latency.

Two experiments drive :mod:`repro.service` through the standard spec /
store pipeline, one row per ``(cell, variant, window)``:

- ``svc-steady`` sweeps the offered load (rate multipliers over the
  scale's baseline arrival rate) against light background flapping — the
  steady-state baseline for latency-percentile regressions;
- ``svc-outage`` holds the load at the baseline rate and sweeps the
  severity of a regional outage covering the middle third of the run —
  p99 and SLO-violation windows should spike in the outage windows and
  recover after it.

Both extend the aggregation statistics with ``_p50/_p95/_p99`` columns,
so replicate sweeps report cross-seed percentiles of each windowed metric
alongside the usual mean/stdev/ci95.
"""

from __future__ import annotations

from typing import Iterable

from repro.experiments.perturbed import BACKGROUND_PERIOD, OverFlapping, over_flapping
from repro.experiments.registry import experiment
from repro.experiments.spec import Pipeline, RunContext
from repro.perturbation.timeline import ScenarioTimeline
from repro.service.driver import (
    SERVICE_COLUMNS,
    SERVICE_STAT_SUFFIXES,
    ServiceConfig,
    service_rows,
)
from repro.service.windows import SLOPolicy

#: background perturbation both experiments share (light flapping; the
#: paper's 30:30 cycle at a low probability)
FLAP_PROBABILITY = 0.2
#: ... and the build stage that lays it over the testbed
_build = over_flapping(FLAP_PROBABILITY, "svc-flap")

#: fraction of service arrivals that are inserts of fresh objects
INSERT_FRACTION = 0.1


def service_config(ctx: RunContext, rate: float) -> ServiceConfig:
    """The scale's service shape at one offered rate."""
    return ServiceConfig(
        duration=ctx.scale.service_duration,
        rate=rate,
        window=ctx.scale.service_window,
        arrival="poisson",
        insert_fraction=INSERT_FRACTION,
        slo=SLOPolicy(),
    )


# --- svc-steady ---------------------------------------------------------------


def _measure_steady(
    ctx: RunContext, built: OverFlapping, load: float
) -> Iterable[tuple]:
    config = service_config(ctx, ctx.scale.service_rate * load)
    # arrivals derive from the load cell (the rate differs anyway), the
    # rejoin/view streams do not — Pastry's probing noise stays fixed
    # across the load sweep
    rows = service_rows(
        built.testbed,
        built.flapping,
        config,
        seed=(ctx.seed, "svc-steady", load),
        rejoin_seed=(ctx.seed, "svc-steady"),
    )
    return [(load, *row) for row in rows]


def _notes_steady(ctx: RunContext, built: OverFlapping) -> str:
    return (
        f"open-loop Poisson traffic at load x {ctx.scale.service_rate:g}/s for "
        f"{ctx.scale.service_duration:g}s over {BACKGROUND_PERIOD} flapping at "
        f"p={FLAP_PROBABILITY}; {ctx.scale.service_window:g}s windows keyed by "
        f"arrival; latency is first-reply discovery time; insert fraction "
        f"{INSERT_FRACTION:g} (rolled back after each variant)"
    )


@experiment(
    id="svc-steady",
    title="Service mode: latency percentiles vs offered load (steady state)",
    tags=("ext", "service", "perturbation"),
    scenario_family="flapping",
)
def steady_spec() -> Pipeline:
    return Pipeline(
        columns=("load", *SERVICE_COLUMNS),
        key_columns=("load", "variant", "window"),
        build=_build,
        cells=lambda ctx, built: ctx.scale.service_loads,
        measure=_measure_steady,
        notes=_notes_steady,
        stat_suffixes=SERVICE_STAT_SUFFIXES,
    )


# --- svc-outage ---------------------------------------------------------------


def _measure_outage(
    ctx: RunContext, built: OverFlapping, severity: float
) -> Iterable[tuple]:
    testbed = built.testbed
    duration = ctx.scale.service_duration
    # outage covers the middle third of the run; its seed must not depend
    # on severity so the affected-region set stays nested along the sweep
    outage = testbed.process(
        "regional-outage",
        (ctx.seed, "svc-outage"),
        start=duration / 3.0,
        duration=duration / 3.0,
        severity=severity,
    )
    schedule = ScenarioTimeline([built.flapping, outage])
    config = service_config(ctx, ctx.scale.service_rate)
    # one shared arrival plan across severities: the curves differ only by
    # the perturbation, never by workload noise
    rows = service_rows(
        testbed,
        schedule,
        config,
        seed=(ctx.seed, "svc-outage"),
        rejoin_seed=(ctx.seed, "svc-outage", severity),
    )
    return [(severity, *row) for row in rows]


def _notes_outage(ctx: RunContext, built: OverFlapping) -> str:
    duration = ctx.scale.service_duration
    return (
        f"open-loop Poisson traffic at {ctx.scale.service_rate:g}/s for "
        f"{duration:g}s; a regional outage of swept severity covers "
        f"[{duration / 3.0:g}, {2.0 * duration / 3.0:g})s over {BACKGROUND_PERIOD} "
        f"flapping at p={FLAP_PROBABILITY}; {ctx.scale.service_window:g}s "
        f"windows keyed by arrival; SLO: p99 <= {SLOPolicy().latency_p99:g}s "
        f"and availability >= {SLOPolicy().availability:g}"
    )


@experiment(
    id="svc-outage",
    title="Service mode: tail latency under a regional outage at sustained load",
    tags=("ext", "service", "perturbation", "outage", "composed"),
    scenario_family="regional-outage",
)
def outage_spec() -> Pipeline:
    return Pipeline(
        columns=("outage_severity", *SERVICE_COLUMNS),
        key_columns=("outage_severity", "variant", "window"),
        build=_build,
        cells=lambda ctx, built: ctx.scale.outage_severities,
        measure=_measure_outage,
        notes=_notes_outage,
        stat_suffixes=SERVICE_STAT_SUFFIXES,
    )

