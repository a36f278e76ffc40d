"""Extension experiment: join storm over background flapping.

A ``storm_fraction`` of the population is absent from the start of stage 2
and arrives *simultaneously* one third of the way through the lookup
sequence — a flash-crowd / post-outage-restart event.  The storm composes
with the paper's background flapping (30:30 at probability 0.3) via
:class:`~repro.perturbation.timeline.ScenarioTimeline`, which is what makes
it hard: every arrival must rejoin MSPastry through contacts that are
themselves flapping
(:class:`~repro.pastry.rejoin.IntervalRejoinAvailability`), so recovery
staggers; MPIL's arrivals simply start answering.  Insertion is stressed
from the other side — stage-1 replicas parked on not-yet-arrived nodes are
unreachable until the storm lands.

Success is reported per (storm fraction, phase) cell: ``pre`` (before the
storm), ``recovery`` (the third right after it), and ``steady`` (the rest).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.errors import ExperimentError
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
from repro.perturbation.storms import JoinStormConfig, JoinStormSchedule
from repro.perturbation.timeline import ScenarioTimeline

EXPERIMENT_ID = "ext-joinstorm"
TITLE = "Extension: join storm over background flapping (recovery by phase)"

FLAP_LABEL = "30:30"
FLAP_PROBABILITY = 0.3
LOOKUP_SPACING = 60.0
PHASES = ("pre", "recovery", "steady")


def _phase_bounds(num_lookups: int) -> dict[str, tuple[int, int]]:
    """Lookup-index windows for the three phases."""
    if num_lookups < 3:
        raise ExperimentError(
            f"ext-joinstorm needs at least 3 lookups to form pre/recovery/"
            f"steady phases, got {num_lookups}"
        )
    n1 = max(1, num_lookups // 3)
    n2 = max(n1 + 1, (2 * num_lookups) // 3)
    return {
        "pre": (0, n1),
        "recovery": (n1, n2),
        "steady": (n2, num_lookups),
    }


def _run_variant(
    testbed: PerturbationTestbed,
    schedule: ScenarioTimeline,
    variant: str,
    num_lookups: int,
    bounds: dict[str, tuple[int, int]],
) -> dict[str, float]:
    """Per-phase success rates in percent."""
    availability, views = variant_views(
        testbed,
        variant,
        schedule,
        (testbed.seed, "storm-views"),
        rejoin_seed=(testbed.seed, "storm-rejoin"),
    )
    successes = {phase: 0 for phase in PHASES}
    for i, outcome in iter_stage2_lookups(
        testbed, variant, range(num_lookups), LOOKUP_SPACING, availability, views
    ):
        for phase, (lo, hi) in bounds.items():
            if lo <= i < hi:
                successes[phase] += int(outcome.success)
    return {
        phase: 100.0 * successes[phase] / (bounds[phase][1] - bounds[phase][0])
        for phase in PHASES
    }


@dataclasses.dataclass
class _StormTestbed:
    """Built state shared by every storm-fraction cell."""

    testbed: PerturbationTestbed
    bounds: dict[str, tuple[int, int]]
    arrival: float
    flapping: FlappingSchedule


def _build(ctx: RunContext) -> _StormTestbed:
    testbed = build_testbed(
        ctx.scale.pastry_nodes, ctx.scale.perturbed_inserts, seed=ctx.seed
    )
    bounds = _phase_bounds(ctx.scale.perturbed_lookups)
    # the storm lands just before the first "recovery" lookup
    arrival = LOOKUP_SPACING * (bounds["recovery"][0] + 0.5)
    flapping = FlappingSchedule(
        FlappingConfig.from_label(FLAP_LABEL, FLAP_PROBABILITY),
        testbed.pastry.n,
        seed=(ctx.seed, "storm-flap"),
        always_online={testbed.client},
    )
    return _StormTestbed(testbed=testbed, bounds=bounds, arrival=arrival, flapping=flapping)


def _measure(ctx: RunContext, built: _StormTestbed, fraction: float) -> Iterable[tuple]:
    testbed = built.testbed
    storm = JoinStormSchedule(
        JoinStormConfig(arrival_time=built.arrival, late_fraction=fraction),
        testbed.pastry.n,
        seed=(ctx.seed, "storm", fraction),
        always_online={testbed.client},
    )
    schedule = ScenarioTimeline([built.flapping, storm])
    num_lookups = ctx.scale.perturbed_lookups
    pastry = _run_variant(testbed, schedule, "pastry", num_lookups, built.bounds)
    ds = _run_variant(testbed, schedule, "mpil-ds", num_lookups, built.bounds)
    nods = _run_variant(testbed, schedule, "mpil-nods", num_lookups, built.bounds)
    return [
        (
            fraction,
            phase,
            round(pastry[phase], 1),
            round(ds[phase], 1),
            round(nods[phase], 1),
        )
        for phase in PHASES
    ]


def _notes(ctx: RunContext, built: _StormTestbed) -> str:
    return (
        f"storm_fraction of nodes absent until t={built.arrival:g}s, arriving at "
        f"once over {FLAP_LABEL} flapping at p={FLAP_PROBABILITY}; MSPastry "
        f"arrivals rejoin through flapping contacts; MPIL at "
        f"({MPIL_MAX_FLOWS}, {MPIL_PER_FLOW_REPLICAS}); lookups every "
        f"{LOOKUP_SPACING:g}s"
    )


@experiment(
    id=EXPERIMENT_ID,
    title=TITLE,
    tags=("ext", "scenario", "perturbation", "storm", "composed"),
    scenario_family="join-storm",
)
def spec() -> Pipeline:
    return Pipeline(
        columns=(
            "storm_fraction",
            "phase",
            "MSPastry",
            "MPIL with DS",
            "MPIL without DS",
        ),
        key_columns=("storm_fraction", "phase"),
        build=_build,
        cells=lambda ctx, built: ctx.scale.storm_fractions,
        measure=_measure,
        notes=_notes,
    )


run = spec.run
