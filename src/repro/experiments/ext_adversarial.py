"""Extension experiment: adversarial vs random node removal.

Aspnes et al. ("Fault-tolerant routing in peer-to-peer systems") show the
gap that matters for discovery overlays is not how many nodes fail but
*which*: deleting the highest-degree nodes disconnects routing structures
far faster than random faults.  This experiment sweeps the removed
fraction and runs each cell twice — once with the adversary targeting the
highest total-degree (in + out) nodes of the Pastry neighbor graph, once
removing a uniform random sample of the same size — so each row reads as
the targeted-vs-random resilience gap per protocol.

Removal is permanent from t=0 (no recovery, hence no rejoin model);
MSPastry's probed views evict the removed nodes as probes time out, MPIL
routes around them with redundant flows and no maintenance at all.
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
from repro.perturbation.adversarial import (
    AdversarialRemoval,
    AdversarialRemovalConfig,
)

EXPERIMENT_ID = "ext-adversarial"
TITLE = "Extension: adversarial (high-degree) vs random node removal"

LOOKUP_SPACING = 60.0
#: removal happens after stage 1 but before the first lookup
REMOVAL_START = 30.0


def _run_variant(
    testbed: PerturbationTestbed,
    schedule: AdversarialRemoval,
    variant: str,
    num_lookups: int,
) -> float:
    availability, views = variant_views(
        testbed,
        variant,
        schedule,
        (testbed.seed, "adv-views", schedule.config.targeting),
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
    ctx: RunContext, testbed: PerturbationTestbed, fraction: float
) -> Iterable[tuple]:
    overlay = testbed.mpil.overlay  # Pastry neighbor lists (directed)
    cells: dict[str, dict[str, float]] = {}
    for targeting in ("degree", "random"):
        schedule = AdversarialRemoval.from_overlay(
            overlay,
            AdversarialRemovalConfig(
                fraction=fraction, start=REMOVAL_START, targeting=targeting
            ),
            seed=(ctx.seed, "adversarial", fraction, targeting),
            always_online={testbed.client},
        )
        cells[targeting] = {
            variant: _run_variant(
                testbed, schedule, variant, ctx.scale.perturbed_lookups
            )
            for variant in ("pastry", "mpil-ds", "mpil-nods")
        }
    return [
        (
            fraction,
            round(cells["degree"]["pastry"], 1),
            round(cells["degree"]["mpil-ds"], 1),
            round(cells["degree"]["mpil-nods"], 1),
            round(cells["random"]["pastry"], 1),
            round(cells["random"]["mpil-ds"], 1),
            round(cells["random"]["mpil-nods"], 1),
        )
    ]


@experiment(
    id=EXPERIMENT_ID,
    title=TITLE,
    tags=("ext", "scenario", "perturbation", "adversarial"),
    scenario_family="adversarial-removal",
)
def spec() -> Pipeline:
    return Pipeline(
        columns=(
            "removed_fraction",
            "MSPastry (targeted)",
            "MPIL with DS (targeted)",
            "MPIL without DS (targeted)",
            "MSPastry (random)",
            "MPIL with DS (random)",
            "MPIL without DS (random)",
        ),
        key_columns=("removed_fraction",),
        build=_build,
        cells=lambda ctx, built: ctx.scale.removal_fractions,
        measure=_measure,
        notes=(
            f"permanent removal at t={REMOVAL_START:g}s; targeted = highest "
            f"total degree (in+out) of the Pastry neighbor graph, random = "
            f"uniform sample of the same size; MPIL at ({MPIL_MAX_FLOWS}, "
            f"{MPIL_PER_FLOW_REPLICAS}); lookups every {LOOKUP_SPACING:g}s"
        ),
    )


run = spec.run
