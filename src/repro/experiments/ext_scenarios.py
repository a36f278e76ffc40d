"""Extension experiments: one sweep per scenario family beyond flapping.

The paper perturbs nodes on synchronized flapping cycles; these five
experiments rerun the Figure-11 comparison under the availability families
the scenario engine adds (:data:`repro.perturbation.scenario.SCENARIO_FAMILIES`),
each laid over the standard testbed by
:meth:`~repro.experiments.perturbed.PerturbationTestbed.process` and
measured by :func:`~repro.experiments.perturbed.stage2_successes`:

- ``ext-churn`` — continuous-time churn: a renewal process with random
  session/downtime durations at 50% long-run availability, swept over the
  mean session length (shorter sessions mean faster churn).
- ``ext-outage`` — the flagship composition: over background flapping
  (30:30 at probability 0.5), a fraction of the transit-stub *regions*
  goes dark for the middle third of the lookup sequence — a correlated
  event independent flapping cannot express.  Success during the outage
  window degrades monotonically with severity, to ~0 with every region down.
- ``ext-wave`` — churn waves: availability held at 50% (mean session =
  mean downtime = 300 s) while the rate multiplier in force for 150 s of
  every 600 s is swept; success is reported overall and for the lookups
  issued inside wave windows, separating steady-state staleness from surge
  damage.
- ``ext-joinstorm`` — a ``storm_fraction`` of the population is absent
  from the start of stage 2 and arrives *at once* a third of the way
  through, over background flapping (30:30 at 0.3): every MSPastry arrival
  must rejoin through contacts that are themselves flapping, so recovery
  staggers, while MPIL's arrivals simply start answering; stage-1 replicas
  parked on not-yet-arrived nodes are unreachable until the storm lands.
  Reported per phase: ``pre``, ``recovery`` (the third right after the
  storm) and ``steady``.
- ``ext-adversarial`` — Aspnes et al. ("Fault-tolerant routing in
  peer-to-peer systems") show the gap that matters is not how many nodes
  fail but *which*: each removed fraction runs once with the adversary
  deleting the highest total-degree (in + out) nodes of the Pastry
  neighbor graph and once with a uniform random sample of the same size.
  Removal is permanent from t=30 s, after stage 1 and before the first
  lookup.

MSPastry always runs with its probed views (maintenance).  The two
composed experiments add interval-based eviction/rejoin
(:class:`~repro.pastry.rejoin.IntervalRejoinAvailability`) so returning
nodes pay the rejoin cost; the churn and wave sweeps leave it out to
isolate the *view-staleness* effect, and permanent removal has nothing to
rejoin.  MPIL runs with no maintenance at all, as always.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ExperimentError
from repro.experiments.base import success_percent
from repro.experiments.perturbed import (
    BACKGROUND_PERIOD,
    COMPARED_VARIANTS,
    LOOKUP_SPACING,
    MPIL_MAX_FLOWS,
    MPIL_PER_FLOW_REPLICAS,
    VARIANT_LABELS,
    OverFlapping,
    PerturbationTestbed,
    build_stage,
    over_flapping,
    stage2_successes,
)
from repro.experiments.registry import experiment
from repro.experiments.spec import Pipeline, RunContext
from repro.perturbation.timeline import ScenarioTimeline

LABELS = tuple(VARIANT_LABELS[variant] for variant in COMPARED_VARIANTS)
MPIL_AT = f"MPIL at ({MPIL_MAX_FLOWS}, {MPIL_PER_FLOW_REPLICAS})"

#: ext-churn: mean session lengths swept (seconds); downtime matches the
#: session so long-run availability stays at 50% while churn speed varies
MEAN_SESSIONS = (600.0, 300.0, 120.0, 60.0, 30.0)

#: ext-wave: the base churn and the wave profile every intensity shares
WAVE_MEAN_SESSION = 300.0
WAVE_MEAN_DOWNTIME = 300.0
WAVE_PERIOD = 600.0
WAVE_DURATION = 150.0

#: background flapping of the two composed experiments
OUTAGE_FLAP_PROBABILITY = 0.5
STORM_FLAP_PROBABILITY = 0.3

#: ext-adversarial: removal happens after stage 1, before the first lookup
REMOVAL_START = 30.0


def _flags(
    testbed: PerturbationTestbed,
    schedule,
    indices: range,
    views_seed: object,
    rejoin_seed: object = None,
) -> list[list[bool]]:
    """Per-lookup success flags of each of :data:`COMPARED_VARIANTS`, in
    that order."""
    return [
        stage2_successes(
            testbed, variant, schedule, indices, LOOKUP_SPACING, views_seed, rejoin_seed
        )
        for variant in COMPARED_VARIANTS
    ]


# --- ext-churn ----------------------------------------------------------------


def _measure_churn(
    ctx: RunContext, testbed: PerturbationTestbed, mean_session: float
) -> Iterable[tuple]:
    schedule = testbed.process(
        "churn",
        (ctx.seed, "churn", mean_session),
        mean_session=mean_session,
        mean_downtime=mean_session,
    )
    flags = _flags(
        testbed, schedule, range(ctx.scale.perturbed_lookups), (ctx.seed, "churn-views")
    )
    return [(mean_session, *map(success_percent, flags))]


@experiment(
    id="ext-churn",
    title="Extension: success under continuous-time churn (50% availability)",
    tags=("ext", "scenario", "perturbation", "churn"),
    scenario_family="churn",
)
def churn_spec() -> Pipeline:
    return Pipeline(
        columns=("mean_session_s", *LABELS),
        key_columns=("mean_session_s",),
        build=build_stage,
        cells=lambda ctx, built: MEAN_SESSIONS,
        measure=_measure_churn,
        notes=(
            f"exponential on/off churn at 50% availability; {MPIL_AT}; lookups every "
            f"{LOOKUP_SPACING:g}s; rejoin model not applied (flapping-specific)"
        ),
    )


# --- ext-outage (composed: a family over background flapping) ------------------


def _outage_window(ctx: RunContext) -> tuple[int, int]:
    """Lookup indices ``[lo, hi)`` issued while the outage is in force: the
    middle third."""
    lo = ctx.scale.perturbed_lookups // 3
    return lo, max(lo + 1, (2 * ctx.scale.perturbed_lookups) // 3)


def _measure_outage(
    ctx: RunContext, built: OverFlapping, severity: float
) -> Iterable[tuple]:
    testbed = built.testbed
    lo, hi = _outage_window(ctx)
    # The outage covers exactly the [lo, hi) lookups, including their
    # in-flight hops: lookup i starts at spacing*(i+1).  Its seed must not
    # depend on severity — the affected set is a prefix of one per-seed
    # region permutation, which is what keeps the severity sweep nested and
    # the curves monotone.
    outage = testbed.process(
        "regional-outage",
        (ctx.seed, "outage"),
        start=LOOKUP_SPACING * (lo + 0.5),
        duration=LOOKUP_SPACING * (hi - lo),
        severity=severity,
    )
    flags = _flags(
        testbed,
        ScenarioTimeline([built.flapping, outage]),
        range(lo, hi),
        (ctx.seed, "outage-views"),
        (ctx.seed, "outage-rejoin"),
    )
    return [(severity, *map(success_percent, flags))]


def _notes_outage(ctx: RunContext, built: OverFlapping) -> str:
    lo, hi = _outage_window(ctx)
    return (
        f"success during the outage window over {BACKGROUND_PERIOD} flapping at "
        f"p={OUTAGE_FLAP_PROBABILITY}; outage hits round(severity x regions) transit "
        f"domains for lookups [{lo}, {hi}) of {ctx.scale.perturbed_lookups}; "
        f"{MPIL_AT}; MSPastry with interval-based eviction/rejoin"
    )


@experiment(
    id="ext-outage",
    title="Extension: regional outage over background flapping (success vs severity)",
    tags=("ext", "scenario", "perturbation", "outage", "composed"),
    scenario_family="regional-outage",
)
def outage_spec() -> Pipeline:
    return Pipeline(
        columns=("outage_severity", *LABELS),
        key_columns=("outage_severity",),
        build=over_flapping(OUTAGE_FLAP_PROBABILITY, "outage-flap"),
        cells=lambda ctx, built: ctx.scale.outage_severities,
        measure=_measure_outage,
        notes=_notes_outage,
    )


# --- ext-wave -----------------------------------------------------------------


def _measure_wave(
    ctx: RunContext, testbed: PerturbationTestbed, intensity: float
) -> Iterable[tuple]:
    schedule = testbed.process(
        "churn-wave",
        (ctx.seed, "wave", intensity),
        mean_session=WAVE_MEAN_SESSION,
        mean_downtime=WAVE_MEAN_DOWNTIME,
        wave_period=WAVE_PERIOD,
        wave_duration=WAVE_DURATION,
        intensity=intensity,
    )
    lookups = range(ctx.scale.perturbed_lookups)
    flags = _flags(testbed, schedule, lookups, (ctx.seed, "wave-views"))
    in_wave = [
        i for i in lookups if (LOOKUP_SPACING * (i + 1)) % WAVE_PERIOD < WAVE_DURATION
    ]
    return [
        (
            intensity,
            *map(success_percent, flags),
            *map(success_percent, [[variant[i] for i in in_wave] for variant in flags]),
        )
    ]


@experiment(
    id="ext-wave",
    title="Extension: success under churn waves (50% availability, surging rates)",
    tags=("ext", "scenario", "perturbation", "churn", "waves"),
    scenario_family="churn-wave",
)
def wave_spec() -> Pipeline:
    return Pipeline(
        columns=(
            "wave_intensity",
            *LABELS,
            *(f"{label} (in wave)" for label in LABELS),
        ),
        key_columns=("wave_intensity",),
        build=build_stage,
        cells=lambda ctx, built: ctx.scale.wave_intensities,
        measure=_measure_wave,
        notes=(
            f"wave churn at 50% availability ({WAVE_MEAN_SESSION:g}s/"
            f"{WAVE_MEAN_DOWNTIME:g}s), rates x intensity for {WAVE_DURATION:g}s "
            f"every {WAVE_PERIOD:g}s; {MPIL_AT}; lookups every "
            f"{LOOKUP_SPACING:g}s; rejoin model not applied (view staleness isolated)"
        ),
    )


# --- ext-joinstorm (composed likewise) ------------------------------------------


def _storm_phases(ctx: RunContext) -> dict[str, tuple[int, int]]:
    """Lookup-index windows ``[lo, hi)`` of the three phases."""
    num_lookups = ctx.scale.perturbed_lookups
    if num_lookups < 3:
        raise ExperimentError(
            f"ext-joinstorm needs at least 3 lookups to form pre/recovery/"
            f"steady phases, got {num_lookups}"
        )
    n1 = max(1, num_lookups // 3)
    n2 = max(n1 + 1, (2 * num_lookups) // 3)
    return {"pre": (0, n1), "recovery": (n1, n2), "steady": (n2, num_lookups)}


def _storm_arrival(ctx: RunContext) -> float:
    """The storm lands just before the first ``recovery`` lookup."""
    return LOOKUP_SPACING * (_storm_phases(ctx)["recovery"][0] + 0.5)


def _measure_storm(
    ctx: RunContext, built: OverFlapping, fraction: float
) -> Iterable[tuple]:
    testbed = built.testbed
    storm = testbed.process(
        "join-storm",
        (ctx.seed, "storm", fraction),
        arrival_time=_storm_arrival(ctx),
        late_fraction=fraction,
    )
    flags = _flags(
        testbed,
        ScenarioTimeline([built.flapping, storm]),
        range(ctx.scale.perturbed_lookups),
        (ctx.seed, "storm-views"),
        (ctx.seed, "storm-rejoin"),
    )
    return [
        (fraction, phase, *map(success_percent, [variant[lo:hi] for variant in flags]))
        for phase, (lo, hi) in _storm_phases(ctx).items()
    ]


def _notes_storm(ctx: RunContext, built: OverFlapping) -> str:
    return (
        f"storm_fraction of nodes absent until t={_storm_arrival(ctx):g}s, "
        f"arriving at once over {BACKGROUND_PERIOD} flapping at "
        f"p={STORM_FLAP_PROBABILITY}; MSPastry arrivals rejoin through flapping "
        f"contacts; {MPIL_AT}; lookups every {LOOKUP_SPACING:g}s"
    )


@experiment(
    id="ext-joinstorm",
    title="Extension: join storm over background flapping (recovery by phase)",
    tags=("ext", "scenario", "perturbation", "storm", "composed"),
    scenario_family="join-storm",
)
def joinstorm_spec() -> Pipeline:
    return Pipeline(
        columns=("storm_fraction", "phase", *LABELS),
        key_columns=("storm_fraction", "phase"),
        build=over_flapping(STORM_FLAP_PROBABILITY, "storm-flap"),
        cells=lambda ctx, built: ctx.scale.storm_fractions,
        measure=_measure_storm,
        notes=_notes_storm,
    )


# --- ext-adversarial ----------------------------------------------------------


def _measure_adversarial(
    ctx: RunContext, testbed: PerturbationTestbed, fraction: float
) -> Iterable[tuple]:
    rates: list[float] = []
    for targeting in ("degree", "random"):
        schedule = testbed.process(
            "adversarial-removal",
            (ctx.seed, "adversarial", fraction, targeting),
            fraction=fraction,
            start=REMOVAL_START,
            targeting=targeting,
        )
        flags = _flags(
            testbed,
            schedule,
            range(ctx.scale.perturbed_lookups),
            (ctx.seed, "adv-views", targeting),
        )
        rates.extend(map(success_percent, flags))
    return [(fraction, *rates)]


@experiment(
    id="ext-adversarial",
    title="Extension: adversarial (high-degree) vs random node removal",
    tags=("ext", "scenario", "perturbation", "adversarial"),
    scenario_family="adversarial-removal",
)
def adversarial_spec() -> Pipeline:
    return Pipeline(
        columns=(
            "removed_fraction",
            *(f"{label} (targeted)" for label in LABELS),
            *(f"{label} (random)" for label in LABELS),
        ),
        key_columns=("removed_fraction",),
        build=build_stage,
        cells=lambda ctx, built: ctx.scale.removal_fractions,
        measure=_measure_adversarial,
        notes=(
            f"permanent removal at t={REMOVAL_START:g}s; targeted = highest "
            f"total degree (in+out) of the Pastry neighbor graph, random = "
            f"uniform sample of the same size; {MPIL_AT}; lookups every "
            f"{LOOKUP_SPACING:g}s"
        ),
    )
