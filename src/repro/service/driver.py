"""Open-loop service driver: a query/insert stream over a live overlay.

:func:`run_service` replays a deterministic arrival plan against one
protocol variant of a perturbation testbed on a single shared
:class:`~repro.sim.engine.EventScheduler`.  Unlike the paper's staged
experiments (one lookup per flapping cycle, run to completion before the
next), requests here overlap in flight: MPIL lookups are launched through
:meth:`~repro.core.timed.TimedMPILNetwork.start_lookup` and complete
whenever their last message copy quiesces, while the perturbation
schedule keeps flipping node availability underneath them.

Determinism contract
--------------------

The arrival plan (times, lookup/insert mix, key draws, inserted object
ids) is precomputed from the service seed *before* any variant state is
touched, so every variant of a cell faces the identical workload and two
runs with the same seed produce identical reports.

Inserts issued at service time use the static insertion path (the
paper's stage-1 method) and are rolled back from the replica directory
after the run, so a testbed shared by the cells and variants of one run
is returned to its stage-1 state — without that, cell N+1 would find cell
N's objects.  The MPIL request counters (which feed each request's RNG
stream) are likewise restored on exit — also when the run raises, because
the testbed outlives it.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Iterable, Optional

from repro.errors import ExperimentError
from repro.experiments.base import DEFAULT_STAT_SUFFIXES, PERCENTILE_STAT_SUFFIXES
from repro.experiments.perturbed import (
    ALL_VARIANTS,
    COMPARED_VARIANTS,
    PASTRY_VARIANTS,
    VARIANT_LABELS,
    variant_views,
)
from repro.service.arrivals import ARRIVAL_KINDS, check_finite, generate_arrivals
from repro.service.windows import SLOPolicy, WindowStats, summarize_windows
from repro.sim.engine import EventScheduler
from repro.sim.rng import derive_rng
from repro.telemetry import current as current_telemetry

#: per-window result columns shared by every service-mode experiment
#: (prefixed by the experiment's own sweep column)
SERVICE_COLUMNS = (
    "variant",
    "window",
    "arrivals",
    "success_rate",
    "latency_p50",
    "latency_p95",
    "latency_p99",
    "throughput",
    "peak_in_flight",
    "slo_ok",
)

#: service pipelines aggregate replicates with cross-seed percentiles on
#: top of the default mean/stdev/ci95
SERVICE_STAT_SUFFIXES = DEFAULT_STAT_SUFFIXES + PERCENTILE_STAT_SUFFIXES

#: randrange bound for variant-independent key/origin draws; the draw is
#: taken modulo the (time-varying) pool size at issue time
_DRAW_BOUND = 1 << 30


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Shape of one open-loop service run."""

    duration: float = 600.0  #: simulated seconds of traffic
    rate: float = 1.0  #: mean arrivals per simulated second
    window: float = 60.0  #: metric window length in seconds
    arrival: str = "poisson"  #: arrival process (``poisson`` or ``fixed``)
    insert_fraction: float = 0.0  #: fraction of arrivals that are inserts
    slo: SLOPolicy = SLOPolicy()

    def __post_init__(self) -> None:
        check_finite(duration=self.duration, rate=self.rate, window=self.window)
        if not self.duration > 0:
            raise ExperimentError(
                f"service duration must be positive, got {self.duration!r}"
            )
        if not self.rate > 0:
            raise ExperimentError(f"service rate must be positive, got {self.rate!r}")
        if not 0 < self.window <= self.duration:
            raise ExperimentError(
                f"window must be in (0, duration], got {self.window!r} "
                f"with duration {self.duration!r}"
            )
        if self.arrival not in ARRIVAL_KINDS:
            raise ExperimentError(
                f"unknown arrival process {self.arrival!r}; "
                f"choose from {list(ARRIVAL_KINDS)}"
            )
        if not 0.0 <= self.insert_fraction < 1.0:
            raise ExperimentError(
                f"insert_fraction must be in [0, 1), got {self.insert_fraction!r}"
            )


@dataclasses.dataclass
class QueryRecord:
    """One request's lifecycle in a service run.

    ``latency`` is the discovery latency (first reply for MPIL, route
    completion for Pastry), ``None`` for a failed lookup; ``completion``
    is when the request released its in-flight slot — the lookup record's
    ``end_time``, which for MPIL is the later quiescence of every message
    copy.
    """

    arrival: float
    kind: str  #: ``"lookup"`` or ``"insert"``
    completion: Optional[float] = None
    latency: Optional[float] = None
    success: bool = False


@dataclasses.dataclass(frozen=True)
class ServiceReport:
    """Everything one variant's service run produced."""

    variant: str
    config: ServiceConfig
    records: tuple[QueryRecord, ...]
    windows: tuple[WindowStats, ...]

    @property
    def total_lookups(self) -> int:
        return sum(1 for record in self.records if record.kind == "lookup")

    @property
    def total_successes(self) -> int:
        return sum(1 for record in self.records if record.success)

    @property
    def peak_in_flight(self) -> int:
        return max((window.peak_in_flight for window in self.windows), default=0)

    @property
    def violation_windows(self) -> int:
        return sum(1 for window in self.windows if not window.slo_ok)


def _build_plan(testbed: Any, config: ServiceConfig, seed: object) -> list[tuple]:
    """The variant-independent workload: one entry per arrival.

    Entries are ``("lookup", time, key_draw)`` or ``("insert", time,
    origin_draw, object_id)``; separate derived streams per decision keep
    the plan stable under parameter tweaks that only touch one stream.
    """
    arrival_rng = derive_rng(seed, "service-arrivals")
    kind_rng = derive_rng(seed, "service-kinds")
    key_rng = derive_rng(seed, "service-keys")
    space = testbed.pastry.space
    plan: list[tuple] = []
    for time in generate_arrivals(config.arrival, arrival_rng, config.rate, config.duration):
        if kind_rng.random() < config.insert_fraction:
            origin_draw = key_rng.randrange(_DRAW_BOUND)
            plan.append(("insert", time, origin_draw, space.random_identifier(key_rng)))
        else:
            plan.append(("lookup", time, key_rng.randrange(_DRAW_BOUND)))
    return plan


def run_service(
    testbed: Any,
    variant: str,
    availability: Any,
    config: ServiceConfig,
    seed: object = 0,
    views: Any = None,
) -> ServiceReport:
    """Run one variant's open-loop service stream and window its metrics.

    ``testbed`` is :class:`~repro.experiments.perturbed.PerturbationTestbed`
    -shaped (``pastry``, ``mpil``, ``client``, per-variant object lists).
    ``availability`` and ``views`` are what the variant should see of the
    scenario schedule, as :func:`~repro.experiments.perturbed.variant_views`
    wires them; ``views`` is ignored for MPIL.
    """
    if variant not in ALL_VARIANTS:
        raise ExperimentError(f"unknown variant {variant!r}")
    pool = list(testbed.objects_for(variant))
    if not pool:
        raise ExperimentError(
            "service mode needs at least one stage-1 object to look up "
            "(perturbed_inserts), got an empty pool"
        )
    plan = _build_plan(testbed, config, seed)
    client = testbed.client
    engine = EventScheduler()
    records: list[QueryRecord] = []
    inserted: list = []
    mpil = testbed.mpil
    saved = mpil.snapshot()  # unchanged by the Pastry variants; restoring is then a no-op

    def complete(record: QueryRecord, result: Any) -> None:
        """Charge a finished lookup's record (a
        :class:`~repro.core.results.LookupResult`) to its query."""
        record.completion = result.end_time
        record.success = result.success
        record.latency = result.latency

    if variant in PASTRY_VARIANTS:
        pastry = testbed.pastry
        directory = pastry.directory
        replicate = variant == "pastry-rr"

        def issue_lookup(record: QueryRecord, key_draw: int) -> None:
            complete(
                record,
                pastry.lookup(
                    client,
                    pool[key_draw % len(pool)],
                    start_time=engine.now,
                    availability=availability,
                    views=views,
                ),
            )

        def issue_insert(record: QueryRecord, origin_draw: int, object_id) -> None:
            inserted.append(object_id)
            pastry.insert_static(
                origin_draw % pastry.n, object_id, replicate_on_route=replicate
            )
            pool.append(object_id)
            record.success = True
            record.completion = record.arrival

    else:
        directory = mpil.directory
        suppress = variant == "mpil-ds"

        def issue_lookup(record: QueryRecord, key_draw: int) -> None:
            mpil.start_lookup(
                engine,
                client,
                pool[key_draw % len(pool)],
                availability=availability,
                duplicate_suppression=suppress,
                on_complete=functools.partial(complete, record),
            )

        def issue_insert(record: QueryRecord, origin_draw: int, object_id) -> None:
            inserted.append(object_id)
            mpil.insert(origin_draw % mpil.overlay.n, object_id)
            pool.append(object_id)
            record.success = True
            record.completion = record.arrival

    def issue(entry: tuple) -> None:
        record = QueryRecord(arrival=entry[1], kind=entry[0])
        records.append(record)
        if entry[0] == "lookup":
            issue_lookup(record, entry[2])
        else:
            issue_insert(record, entry[2], entry[3])

    for entry in plan:
        engine.post(entry[1], issue, entry)
    try:
        # Run to quiescence: arrivals stop at `duration` but in-flight MPIL
        # copies may complete after it; their records stay charged to their
        # arrival windows.
        engine.run()
    finally:
        # hand the shared testbed back in its stage-1 state even when the
        # stream dies mid-run
        for object_id in inserted:
            directory.remove_object(object_id)
        mpil.restore(saved)

    telemetry = current_telemetry()
    spans = telemetry.spans
    if spans is not None:
        # one service trace per variant run: a root span for the stream and
        # one child per request (the per-hop trees live in the lookup traces
        # the protocol drivers emitted while the stream ran)
        trace_id = spans.begin_trace(f"svc-{variant}")
        root = spans.emit(
            trace_id,
            "svc-run",
            node=client,
            start=0.0,
            end=config.duration,
            variant=variant,
            arrivals=len(records),
        )
        for record in records:
            end = record.completion if record.completion is not None else config.duration
            spans.emit(
                trace_id,
                f"svc-{record.kind}",
                node=client,
                start=record.arrival,
                end=end,
                parent_id=root,
                success=record.success,
            )
    metrics = telemetry.metrics
    metrics.inc("svc_arrivals_total", len(records), variant=variant)
    metrics.inc(
        "svc_success_total",
        sum(1 for record in records if record.success),
        variant=variant,
    )
    latency_hist = metrics.histogram("svc_discovery_latency", variant=variant)
    for record in records:
        if record.latency is not None:
            latency_hist.observe(record.latency)

    windows = summarize_windows(records, config.duration, config.window, config.slo)
    return ServiceReport(
        variant=variant,
        config=config,
        records=tuple(records),
        windows=tuple(windows),
    )


def service_rows(
    testbed: Any,
    schedule: Any,
    config: ServiceConfig,
    seed: object,
    rejoin_seed: object,
    variants: Iterable[str] = COMPARED_VARIANTS,
) -> list[tuple]:
    """One ``variant x window`` row block (:data:`SERVICE_COLUMNS`-shaped)
    for one service cell.

    Pastry variants see the schedule through interval-based eviction/
    rejoin plus probed views (they run maintenance); MPIL sees the raw
    schedule.  All variants share the arrival plan derived from ``seed``;
    ``rejoin_seed`` feeds only the Pastry probing/rejoin noise, so a
    caller can hold one fixed while sweeping the other.
    """
    rows: list[tuple] = []
    for variant in variants:
        availability, views = variant_views(
            testbed,
            variant,
            schedule,
            (rejoin_seed, "views", variant),
            rejoin_seed=(rejoin_seed, "rejoin", variant),
        )
        report = run_service(
            testbed, variant, availability, config, seed=seed, views=views
        )
        rows.extend(
            (
                VARIANT_LABELS[variant],
                window.index,
                window.arrivals,
                round(100.0 * window.success_rate, 1),
                round(window.p50, 6),
                round(window.p95, 6),
                round(window.p99, 6),
                round(window.throughput, 6),
                window.peak_in_flight,
                int(window.slo_ok),
            )
            for window in report.windows
        )
    return rows
