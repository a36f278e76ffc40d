"""Shared machinery for the perturbation experiments (fig1, fig11, fig12).

Methodology (paper Sections 3 and 6.2): each simulation has two stages.
Stage 1 inserts objects into the *static* overlay.  Stage 2 issues lookups
for those objects, one per flapping cycle, while nodes flap.  The same
client node generates all insertions and lookups; the harness exempts it
from flapping so request generation itself never stalls.

Four protocol variants share one testbed (same overlay, same IDs, same
stage-1 state, same ground-truth schedules):

- ``pastry``      — plain MSPastry-style routing with maintenance views;
- ``pastry-rr``   — plus Replication on Route at insert time;
- ``mpil-ds``     — MPIL over the Pastry neighbor lists, no maintenance,
                    duplicate suppression on;
- ``mpil-nods``   — same with duplicate suppression off.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

from repro.core.config import MPILConfig
from repro.core.identifiers import Identifier
from repro.core.results import MISDELIVERED
from repro.core.timed import TimedMPILNetwork
from repro.errors import ExperimentError
from repro.experiments.spec import BuildStage, CellsStage, RunContext
from repro.overlay.transit_stub import TransitStubUnderlay
from repro.pastry.mpil_on_pastry import make_mpil_over_pastry
from repro.pastry.protocol import PastryNetwork
from repro.pastry.rejoin import IntervalRejoinAvailability, RejoinAdjustedAvailability
from repro.pastry.views import ProbedViewOracle
from repro.perturbation.adversarial import AdversarialRemoval
from repro.perturbation.flapping import FlappingSchedule
from repro.perturbation.outage import RegionalOutage, regions_from_attachment
from repro.perturbation.scenario import get_family, scenarios_for
from repro.sim.counters import TrafficCounters
from repro.sim.latency import UnderlayLatency
from repro.sim.rng import derive_rng
from repro.util.cache import get_or_build

#: MPIL parameters for the MSPastry-overlay experiments (paper Section 6.2)
MPIL_MAX_FLOWS = 10
MPIL_PER_FLOW_REPLICAS = 5

#: the flapping cycle laid under a composed timeline or service traffic
BACKGROUND_PERIOD = "30:30"

PASTRY_VARIANTS = ("pastry", "pastry-rr")
MPIL_VARIANTS = ("mpil-ds", "mpil-nods")
ALL_VARIANTS = PASTRY_VARIANTS + MPIL_VARIANTS
#: the three-way comparison (Figure 12, the ``ext-*`` sweeps, composed
#: specs, service traffic): MSPastry against both MPIL modes
COMPARED_VARIANTS = ("pastry", *MPIL_VARIANTS)

#: seconds between consecutive lookups of the ``ext-*`` and composed specs
LOOKUP_SPACING = 60.0

VARIANT_LABELS = {
    "pastry": "MSPastry",
    "pastry-rr": "MSPastry with RR",
    "mpil-ds": "MPIL with DS",
    "mpil-nods": "MPIL without DS",
}


@dataclasses.dataclass
class PerturbationTestbed:
    """Static stage-1 state shared by every (period, probability) cell."""

    pastry: PastryNetwork
    mpil: TimedMPILNetwork
    client: int
    objects_plain: list[Identifier]
    objects_rr: list[Identifier]
    objects_mpil: list[Identifier]
    seed: object
    #: transit domain of each overlay node's underlay attachment — the
    #: region key for correlated outages (``ext-outage``)
    regions: list[int] = dataclasses.field(default_factory=list)

    def objects_for(self, variant: str) -> list[Identifier]:
        """The stage-1 objects ``variant`` looks up."""
        return {"pastry": self.objects_plain, "pastry-rr": self.objects_rr}.get(
            variant, self.objects_mpil
        )

    def process(self, family: str, seed: object, **params: Any):
        """One scenario family's availability process laid over this testbed.

        ``params`` are the family's parameters as
        :data:`repro.perturbation.scenario.SCENARIO_FAMILIES` names them.
        The process covers what the family perturbs — the transit-stub
        regions for an outage, the Pastry neighbor graph's total (in + out)
        degrees for adversarial removal, the whole population otherwise —
        and always exempts the client, so request generation never stalls.
        """
        entry = get_family(family)
        covers: dict[str, Any]
        if entry.process_class is RegionalOutage:
            covers = {"regions": self.regions}
        elif entry.process_class is AdversarialRemoval:
            covers = {"degrees": self.mpil.overlay.total_degrees}
        else:
            covers = {"num_nodes": self.pastry.n}
        return entry.process_class(
            config=entry.config(**params),
            seed=seed,
            always_online={self.client},
            **covers,
        )


def _underlay_parts(num_nodes: int, seed: object):
    # the underlay, attachment, latency model, and region map are pure
    # functions of (num_nodes, seed); stable latency identity here is also
    # what lets the PastryNetwork structure cache hit across runs
    def build():
        underlay = TransitStubUnderlay.for_size(num_nodes, seed=seed)
        attachment = underlay.random_attachment(num_nodes, seed=seed)
        latency = UnderlayLatency(underlay, attachment)
        regions = regions_from_attachment(underlay, attachment)
        return (underlay, attachment, latency, regions)

    return get_or_build(("underlay", num_nodes, repr(seed)), build)


def build_testbed(
    num_nodes: int,
    num_inserts: int,
    seed: object = 0,
) -> PerturbationTestbed:
    """Build the Pastry overlay, with the paper's MSPastry configuration,
    on a transit-stub underlay and run stage 1."""
    _underlay, _attachment, latency, regions = _underlay_parts(num_nodes, seed)
    pastry = PastryNetwork(n=num_nodes, latency=latency, seed=seed)
    client = 0
    rng = derive_rng(seed, "perturbed-objects")

    # Insertion requests enter the overlay at random nodes (the workload
    # generator injects them network-wide, as in Section 6.1); all lookups
    # are issued by the single measurement client.  If inserts and lookups
    # shared one origin, every MPIL lookup would find a replica on its first
    # hop (insert and lookup climb the same metric path), which contradicts
    # the paper's observed lookup traffic of ~9 messages per lookup (Fig 12).
    objects_plain = [pastry.space.random_identifier(rng) for _ in range(num_inserts)]
    objects_rr = [pastry.space.random_identifier(rng) for _ in range(num_inserts)]
    for key in objects_plain:
        pastry.insert_static(rng.randrange(num_nodes), key, replicate_on_route=False)
    for key in objects_rr:
        pastry.insert_static(rng.randrange(num_nodes), key, replicate_on_route=True)

    mpil_config = MPILConfig(
        max_flows=MPIL_MAX_FLOWS,
        per_flow_replicas=MPIL_PER_FLOW_REPLICAS,
        duplicate_suppression=True,
    )
    mpil = make_mpil_over_pastry(pastry, config=mpil_config, seed=seed)
    objects_mpil = [pastry.space.random_identifier(rng) for _ in range(num_inserts)]
    for key in objects_mpil:
        mpil.insert(rng.randrange(num_nodes), key)
    return PerturbationTestbed(
        pastry=pastry,
        mpil=mpil,
        client=client,
        objects_plain=objects_plain,
        objects_rr=objects_rr,
        objects_mpil=objects_mpil,
        seed=seed,
        regions=regions,
    )


def build_stage(ctx: RunContext) -> PerturbationTestbed:
    """The build stage of every experiment over the perturbed testbed: the
    scale's Pastry overlay with stage 1 done."""
    return build_testbed(
        ctx.scale.pastry_nodes, ctx.scale.perturbed_inserts, seed=ctx.seed
    )


def flapping_grid(figure: str) -> CellsStage:
    """The sweep stage of a flapping figure: one cell per ``(idle:offline,
    probability)`` of ``figure``'s panels at the scale's probabilities."""
    return lambda ctx, testbed: scenarios_for(figure, ctx.scale.flap_probabilities)


@dataclasses.dataclass
class OverFlapping:
    """The testbed with its background flapping, shared by every cell."""

    testbed: PerturbationTestbed
    flapping: FlappingSchedule


def over_flapping(probability: float, seed_label: str) -> BuildStage:
    """A build stage: the testbed plus background flapping at ``probability``
    (the paper's 30:30 cycle) for a cell's own family or traffic to run over."""

    def build(ctx: RunContext) -> OverFlapping:
        testbed = build_stage(ctx)
        flapping = testbed.process(
            "flapping",
            (ctx.seed, seed_label),
            period=BACKGROUND_PERIOD,
            probability=probability,
        )
        return OverFlapping(testbed, flapping)

    return build


def variant_views(
    testbed: PerturbationTestbed,
    variant: str,
    schedule,
    views_seed: object,
    rejoin_seed: object = None,
):
    """``(availability, views)`` as ``variant`` should see ``schedule``.

    MPIL runs no maintenance and sees the raw schedule.  Pastry sees it
    through a :class:`ProbedViewOracle` — and, when ``rejoin_seed`` is
    given, through interval-based eviction/rejoin underneath that.  Callers
    own the seed labels so each experiment's streams stay distinct.
    """
    if variant not in PASTRY_VARIANTS:
        return schedule, None
    availability = schedule
    if rejoin_seed is not None:
        availability = IntervalRejoinAvailability(
            schedule, testbed.pastry.config, seed=rejoin_seed
        )
    return availability, ProbedViewOracle(
        availability, testbed.pastry.config, seed=views_seed
    )


def iter_stage2_lookups(
    testbed: PerturbationTestbed,
    variant: str,
    indices,
    spacing: float,
    availability,
    views=None,
):
    """Yield ``(lookup_index, outcome)`` for one variant's stage-2 lookups.

    The one stage-2 loop: lookup ``i`` is issued at ``spacing * (i + 1)``
    for the ``i``-th stage-1 object; each outcome is the driver's
    :class:`~repro.core.results.LookupResult`.  ``availability``/``views``
    are what the variant should see — see :func:`variant_views`.
    """
    if variant not in ALL_VARIANTS:
        raise ExperimentError(f"unknown variant {variant!r}")
    objects = testbed.objects_for(variant)
    indices = tuple(indices)
    if not indices or not objects:
        raise ExperimentError(
            f"stage 2 needs at least one lookup and one inserted object "
            f"(perturbed_lookups / perturbed_inserts), got {len(indices)} "
            f"lookup(s) over {len(objects)} object(s)"
        )
    is_pastry = variant in PASTRY_VARIANTS
    for i in indices:
        key = objects[i % len(objects)]
        if is_pastry:
            outcome = testbed.pastry.lookup(
                testbed.client,
                key,
                start_time=spacing * (i + 1),
                availability=availability,
                views=views,
            )
        else:
            outcome = testbed.mpil.lookup_at(
                testbed.client,
                key,
                start_time=spacing * (i + 1),
                availability=availability,
                duplicate_suppression=variant == "mpil-ds",
            )
        yield i, outcome


def stage2_successes(
    testbed: PerturbationTestbed,
    variant: str,
    schedule,
    indices,
    spacing: float,
    views_seed: object,
    rejoin_seed: object = None,
) -> list[bool]:
    """One variant's per-lookup success flags under ``schedule``, in the
    order of ``indices``.

    The stage-2 success loop every scenario experiment shares:
    :func:`variant_views` decides what the variant sees of the schedule
    (the seed labels are the caller's), :func:`iter_stage2_lookups` issues
    the lookups.  Lookups are pure functions of (schedule, key, start
    time), so a caller measuring a window passes only its indices.
    """
    availability, views = variant_views(
        testbed, variant, schedule, views_seed, rejoin_seed
    )
    return [
        bool(outcome.success)
        for _i, outcome in iter_stage2_lookups(
            testbed, variant, indices, spacing, availability, views
        )
    ]


@dataclasses.dataclass(frozen=True)
class CellResult:
    """One variant's outcome for one (period, probability) cell."""

    period_label: str
    probability: float
    variant: str
    lookups: int
    success_rate: float  # percent
    lookup_messages: int
    retransmissions: int
    misdeliveries: int
    drops: int
    maintenance_messages: float
    duration: float

    @property
    def total_messages(self) -> float:
        return self.lookup_messages + self.retransmissions + self.maintenance_messages


def run_cell(
    testbed: PerturbationTestbed,
    period_label: str,
    probability: float,
    num_lookups: int,
    variants: Sequence[str] = ALL_VARIANTS,
) -> list[CellResult]:
    """Run stage 2 for every requested variant under one flapping setting
    (every stream derives from the testbed's seed)."""
    unknown = set(variants) - set(ALL_VARIANTS)
    if unknown:
        raise ExperimentError(f"unknown variants {sorted(unknown)}")
    schedule = testbed.process(
        "flapping",
        (testbed.seed, "flap", period_label, probability),
        period=period_label,
        probability=probability,
    )
    # The Pastry layer sees availability through MSPastry's declared-failure
    # eviction + rejoin semantics; MPIL (no maintenance) sees the raw
    # schedule — a returning node simply answers again.
    pastry_availability = RejoinAdjustedAvailability(
        schedule,
        testbed.pastry.config,
        seed=(testbed.seed, "rejoin", period_label, probability),
    )
    oracle = ProbedViewOracle(
        pastry_availability,
        testbed.pastry.config,
        seed=(testbed.seed, "views", period_label, probability),
    )
    cycle = schedule.config.cycle
    # lookup i starts at cycle * (i + 1): every node has entered its
    # flapping period by then (phases < cycle)
    duration = num_lookups * cycle
    results: list[CellResult] = []

    for variant in variants:
        is_pastry = variant in PASTRY_VARIANTS
        counters = TrafficCounters()
        outcomes = [
            outcome
            for _i, outcome in iter_stage2_lookups(
                testbed,
                variant,
                range(num_lookups),
                cycle,
                pastry_availability if is_pastry else schedule,
                oracle if is_pastry else None,
            )
        ]
        for outcome in outcomes:
            counters.merge(outcome.counters)
        if is_pastry:
            maintenance = oracle.expected_maintenance_messages(
                duration,
                testbed.pastry.average_leafset_size(),
                testbed.pastry.average_table_entries(),
            )
        else:
            maintenance = 0.0  # MPIL runs no maintenance
        successes = sum(int(outcome.success) for outcome in outcomes)
        results.append(
            CellResult(
                period_label=period_label,
                probability=probability,
                variant=variant,
                lookups=num_lookups,
                success_rate=100.0 * successes / num_lookups,
                lookup_messages=counters.messages_sent,
                retransmissions=counters.retransmissions,
                misdeliveries=sum(outcome.cause == MISDELIVERED for outcome in outcomes),
                drops=counters.drops_hop_limit,
                maintenance_messages=maintenance,
                duration=duration,
            )
        )
    return results
