"""Extension experiment: correlated regional outage over background flapping.

The scenario engine's flagship composition: the overlay is already under
the paper's flapping perturbation (30:30 at probability 0.5) when, one
third of the way through the lookup sequence, a fraction of the
transit-stub *regions* goes dark for the middle third — a correlated event
the paper's independent-flapping model cannot express.  The severity sweep
(fraction of regions down) yields success-vs-severity curves from the same
store-backed pipeline as the paper figures; lookup success during the
outage window should degrade monotonically with severity, hitting ~0 when
every region is down.

MSPastry runs with probed views plus interval-based eviction/rejoin
(:class:`~repro.pastry.rejoin.IntervalRejoinAvailability`) so recovering
regions pay the rejoin cost; MPIL runs with no maintenance, as always.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.experiments.perturbed import (
    MPIL_MAX_FLOWS,
    MPIL_PER_FLOW_REPLICAS,
    PerturbationTestbed,
    build_testbed,
    iter_stage2_lookups,
    variant_views,
)
from repro.experiments.registry import experiment
from repro.experiments.spec import Pipeline, RunContext
from repro.perturbation.flapping import FlappingConfig, FlappingSchedule
from repro.perturbation.outage import RegionalOutage, RegionalOutageConfig
from repro.perturbation.timeline import ScenarioTimeline

EXPERIMENT_ID = "ext-outage"
TITLE = "Extension: regional outage over background flapping (success vs severity)"

#: background perturbation every severity cell shares
FLAP_LABEL = "30:30"
FLAP_PROBABILITY = 0.5
LOOKUP_SPACING = 60.0


def _windows(num_lookups: int) -> tuple[int, int]:
    """Lookup indices [lo, hi) issued while the outage is in force."""
    lo = num_lookups // 3
    hi = max(lo + 1, (2 * num_lookups) // 3)
    return lo, hi


def _run_variant(
    testbed: PerturbationTestbed,
    schedule: ScenarioTimeline,
    variant: str,
    window: tuple[int, int],
) -> float:
    """Success rate (percent) over the lookups issued during the outage.

    Lookups are pure functions of (schedule, key, start_time), so only the
    in-window indices are executed; the rest would not affect the rate.
    """
    lo, hi = window
    availability, views = variant_views(
        testbed,
        variant,
        schedule,
        (testbed.seed, "outage-views"),
        rejoin_seed=(testbed.seed, "outage-rejoin"),
    )
    successes = sum(
        outcome.success
        for _i, outcome in iter_stage2_lookups(
            testbed, variant, range(lo, hi), LOOKUP_SPACING, availability, views
        )
    )
    return 100.0 * successes / (hi - lo)


@dataclasses.dataclass
class _OutageTestbed:
    """Built state shared by every severity cell."""

    testbed: PerturbationTestbed
    window: tuple[int, int]
    outage_start: float
    outage_duration: float
    flapping: FlappingSchedule


def _build(ctx: RunContext) -> _OutageTestbed:
    testbed = build_testbed(
        ctx.scale.pastry_nodes, ctx.scale.perturbed_inserts, seed=ctx.seed
    )
    num_lookups = ctx.scale.perturbed_lookups
    lo, hi = _windows(num_lookups)
    # outage covers exactly the [lo, hi) lookups, including their in-flight
    # hops: lookup i starts at spacing*(i+1)
    outage_start = LOOKUP_SPACING * (lo + 0.5)
    outage_duration = LOOKUP_SPACING * (hi - lo)
    flapping = FlappingSchedule(
        FlappingConfig.from_label(FLAP_LABEL, FLAP_PROBABILITY),
        testbed.pastry.n,
        seed=(ctx.seed, "outage-flap"),
        always_online={testbed.client},
    )
    return _OutageTestbed(
        testbed=testbed,
        window=(lo, hi),
        outage_start=outage_start,
        outage_duration=outage_duration,
        flapping=flapping,
    )


def _measure(ctx: RunContext, built: _OutageTestbed, severity: float) -> Iterable[tuple]:
    # NB: the outage seed must not depend on severity — the affected set is
    # a prefix of one per-seed region permutation, which is what keeps the
    # severity sweep nested and the curves monotone.
    testbed = built.testbed
    outage = RegionalOutage(
        testbed.regions,
        RegionalOutageConfig(
            start=built.outage_start, duration=built.outage_duration, severity=severity
        ),
        seed=(ctx.seed, "outage"),
        always_online={testbed.client},
    )
    schedule = ScenarioTimeline([built.flapping, outage])
    window = built.window
    return [
        (
            severity,
            round(_run_variant(testbed, schedule, "pastry", window), 1),
            round(_run_variant(testbed, schedule, "mpil-ds", window), 1),
            round(_run_variant(testbed, schedule, "mpil-nods", window), 1),
        )
    ]


def _notes(ctx: RunContext, built: _OutageTestbed) -> str:
    lo, hi = built.window
    return (
        f"success during the outage window over {FLAP_LABEL} flapping at "
        f"p={FLAP_PROBABILITY}; outage hits round(severity x regions) transit "
        f"domains for lookups [{lo}, {hi}) of {ctx.scale.perturbed_lookups}; MPIL at "
        f"({MPIL_MAX_FLOWS}, {MPIL_PER_FLOW_REPLICAS}); MSPastry with "
        f"interval-based eviction/rejoin"
    )


@experiment(
    id=EXPERIMENT_ID,
    title=TITLE,
    tags=("ext", "scenario", "perturbation", "outage", "composed"),
    scenario_family="regional-outage",
)
def spec() -> Pipeline:
    return Pipeline(
        columns=("outage_severity", "MSPastry", "MPIL with DS", "MPIL without DS"),
        key_columns=("outage_severity",),
        build=_build,
        cells=lambda ctx, built: ctx.scale.outage_severities,
        measure=_measure,
        notes=_notes,
    )


run = spec.run
