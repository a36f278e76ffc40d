"""Extension experiment: MPIL vs MSPastry under continuous-time churn.

The paper's perturbation model flaps nodes on synchronized cycles; real
churn (its own motivation, and the availability studies it cites) is a
renewal process with random session/downtime durations.  This experiment
reruns the Figure-11 comparison under :class:`ChurnSchedule` with 50%
long-run availability and a sweep of mean session lengths — shorter
sessions mean faster churn.

MSPastry runs with its probed views (maintenance); the declared-failure
rejoin model is specific to the cyclic flapping schedule and is not
applied here, so this experiment isolates the *view-staleness* effect.
MPIL runs with no maintenance at all, as always.
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
from repro.perturbation.churn import ChurnConfig, ChurnSchedule

EXPERIMENT_ID = "ext-churn"
TITLE = "Extension: success under continuous-time churn (50% availability)"

#: mean session lengths swept (seconds); downtime matches the session so
#: long-run availability stays at 50% while churn speed varies.
MEAN_SESSIONS = (600.0, 300.0, 120.0, 60.0, 30.0)
LOOKUP_SPACING = 60.0


def _run_variant(
    testbed: PerturbationTestbed,
    schedule: ChurnSchedule,
    variant: str,
    num_lookups: int,
) -> float:
    availability, views = variant_views(
        testbed, variant, schedule, (testbed.seed, "churn-views")
    )
    successes = sum(
        outcome.success
        for _i, outcome in iter_stage2_lookups(
            testbed, variant, range(num_lookups), LOOKUP_SPACING, availability, views
        )
    )
    return 100.0 * successes / num_lookups


def _build(ctx: RunContext) -> PerturbationTestbed:
    return build_testbed(
        ctx.scale.pastry_nodes, ctx.scale.perturbed_inserts, seed=ctx.seed
    )


def _measure(
    ctx: RunContext, testbed: PerturbationTestbed, mean_session: float
) -> Iterable[tuple]:
    config = ChurnConfig(mean_session=mean_session, mean_downtime=mean_session)
    schedule = ChurnSchedule(
        config,
        testbed.pastry.n,
        seed=(ctx.seed, "churn", mean_session),
        always_online={testbed.client},
    )
    lookups = ctx.scale.perturbed_lookups
    return [
        (
            mean_session,
            round(_run_variant(testbed, schedule, "pastry", lookups), 1),
            round(_run_variant(testbed, schedule, "mpil-ds", lookups), 1),
            round(_run_variant(testbed, schedule, "mpil-nods", lookups), 1),
        )
    ]


@experiment(
    id=EXPERIMENT_ID,
    title=TITLE,
    tags=("ext", "scenario", "perturbation", "churn"),
    scenario_family="churn",
)
def spec() -> Pipeline:
    return Pipeline(
        columns=("mean_session_s", "MSPastry", "MPIL with DS", "MPIL without DS"),
        key_columns=("mean_session_s",),
        build=_build,
        cells=lambda ctx, built: MEAN_SESSIONS,
        measure=_measure,
        notes=(
            f"exponential on/off churn at 50% availability; MPIL at "
            f"({MPIL_MAX_FLOWS}, {MPIL_PER_FLOW_REPLICAS}); lookups every "
            f"{LOOKUP_SPACING:g}s; rejoin model not applied (flapping-specific)"
        ),
    )


run = spec.run
