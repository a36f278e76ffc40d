"""Extension experiment: lookup success under churn waves.

Real churn is not stationary: diurnal cycles and flash events produce
waves where join/leave rates surge together.  This experiment holds
long-run availability at 50% (mean session = mean downtime = 300 s) and
sweeps the wave *intensity* — the rate multiplier in force for 150 s out
of every 600 s — so the population's availability stays constant while
churn speed periodically spikes.  Success is reported both overall and for
the lookups issued inside wave windows, separating steady-state staleness
from surge damage.

As in ``ext-churn``, MSPastry runs with probed views (maintenance) and no
rejoin model (view staleness isolated); MPIL runs with no maintenance.
"""

from __future__ import annotations

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
from repro.perturbation.waves import ChurnWaveConfig, ChurnWaveSchedule

EXPERIMENT_ID = "ext-wave"
TITLE = "Extension: success under churn waves (50% availability, surging rates)"

MEAN_SESSION = 300.0
MEAN_DOWNTIME = 300.0
WAVE_PERIOD = 600.0
WAVE_DURATION = 150.0
LOOKUP_SPACING = 60.0


def _in_wave(time: float) -> bool:
    return time % WAVE_PERIOD < WAVE_DURATION


def _run_variant(
    testbed: PerturbationTestbed,
    schedule: ChurnWaveSchedule,
    variant: str,
    num_lookups: int,
) -> tuple[float, float]:
    """(overall, in-wave) success rates in percent."""
    availability, views = variant_views(
        testbed, variant, schedule, (testbed.seed, "wave-views")
    )
    successes = in_wave_successes = in_wave_total = 0
    for i, outcome in iter_stage2_lookups(
        testbed, variant, range(num_lookups), LOOKUP_SPACING, availability, views
    ):
        successes += int(outcome.success)
        if _in_wave(LOOKUP_SPACING * (i + 1)):
            in_wave_total += 1
            in_wave_successes += int(outcome.success)
    overall = 100.0 * successes / num_lookups
    in_wave = 100.0 * in_wave_successes / in_wave_total if in_wave_total else 0.0
    return overall, in_wave


def _build(ctx: RunContext) -> PerturbationTestbed:
    return build_testbed(
        ctx.scale.pastry_nodes, ctx.scale.perturbed_inserts, seed=ctx.seed
    )


def _measure(
    ctx: RunContext, testbed: PerturbationTestbed, intensity: float
) -> Iterable[tuple]:
    config = ChurnWaveConfig(
        mean_session=MEAN_SESSION,
        mean_downtime=MEAN_DOWNTIME,
        wave_period=WAVE_PERIOD,
        wave_duration=WAVE_DURATION,
        intensity=intensity,
    )
    schedule = ChurnWaveSchedule(
        config,
        testbed.pastry.n,
        seed=(ctx.seed, "wave", intensity),
        always_online={testbed.client},
    )
    lookups = ctx.scale.perturbed_lookups
    pastry_all, pastry_wave = _run_variant(testbed, schedule, "pastry", lookups)
    ds_all, ds_wave = _run_variant(testbed, schedule, "mpil-ds", lookups)
    nods_all, nods_wave = _run_variant(testbed, schedule, "mpil-nods", lookups)
    return [
        (
            intensity,
            round(pastry_all, 1),
            round(ds_all, 1),
            round(nods_all, 1),
            round(pastry_wave, 1),
            round(ds_wave, 1),
            round(nods_wave, 1),
        )
    ]


@experiment(
    id=EXPERIMENT_ID,
    title=TITLE,
    tags=("ext", "scenario", "perturbation", "churn", "waves"),
    scenario_family="churn-wave",
)
def spec() -> Pipeline:
    return Pipeline(
        columns=(
            "wave_intensity",
            "MSPastry",
            "MPIL with DS",
            "MPIL without DS",
            "MSPastry (in wave)",
            "MPIL with DS (in wave)",
            "MPIL without DS (in wave)",
        ),
        key_columns=("wave_intensity",),
        build=_build,
        cells=lambda ctx, built: ctx.scale.wave_intensities,
        measure=_measure,
        notes=(
            f"wave churn at 50% availability ({MEAN_SESSION:g}s/{MEAN_DOWNTIME:g}s), "
            f"rates x intensity for {WAVE_DURATION:g}s every {WAVE_PERIOD:g}s; "
            f"MPIL at ({MPIL_MAX_FLOWS}, {MPIL_PER_FLOW_REPLICAS}); lookups every "
            f"{LOOKUP_SPACING:g}s; rejoin model not applied (view staleness isolated)"
        ),
    )


run = spec.run
