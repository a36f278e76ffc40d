"""The per-layer metric catalogue and how a traced run fills it.

``PER_LAYER`` is the single list of per-layer metric names, units and
directions; ``BENCHMARK.json`` repeats it and ``bench/tests`` checks the
two agree.  :func:`derive` turns one traced run — the tracer's cells and
spans for the hot passes, the span durations of the traced cold set-up,
and the probes' direct measurements — into ``{name: value or None}``.
``None`` means the layer's boundary no longer resolves (see
``Tracer.missing``); ``0`` means the layer did nothing on this workload.
"""

from __future__ import annotations

import statistics
from typing import Any, Optional, Sequence

from repro.experiments.base import percentile

from bench.tracing import Tracer

LOWER, HIGHER = "lower", "higher"

#: layers with a ``<layer>.self_s`` metric: every layer in the boundary table
SELF_TIME_LAYERS = (
    "overlay",
    "core.metric",
    "core.routing",
    "core.network",
    "core.timed",
    "sim.engine",
    "sim.rng",
    "pastry.state",
    "pastry.protocol",
    "pastry.views",
    "pastry.rejoin",
    "perturbation.flapping",
    "perturbation.outage",
    "perturbation.timeline",
    "service.driver",
    "experiments.spec",
    "experiments.runtime",
    "experiments.ledger",
    "experiments.store",
)

#: ``(name, unit, better)``
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("overlay.power_law_build_s", "s", LOWER),
    ("overlay.random_build_s", "s", LOWER),
    ("overlay.csr_s", "s", LOWER),
    ("overlay.transit_stub_build_s", "s", LOWER),
    ("core.metric.table_build_s", "s", LOWER),
    ("core.metric.scores_miss_us", "us", LOWER),
    ("core.metric.scores_hit_us", "us", LOWER),
    ("core.routing.decide_calls", "count", LOWER),
    ("core.routing.decide_us", "us", LOWER),
    ("core.network.insert_p50_ms", "ms", LOWER),
    ("core.network.insert_p99_ms", "ms", LOWER),
    ("core.network.lookup_p50_ms", "ms", LOWER),
    ("core.network.lookup_p99_ms", "ms", LOWER),
    ("core.network.msgs_per_insert", "count", LOWER),
    ("core.network.msgs_per_lookup", "count", LOWER),
    ("core.network.dup_drop_ratio", "ratio", LOWER),
    ("core.timed.lookup_at_p50_ms", "ms", LOWER),
    ("core.timed.lookup_at_p99_ms", "ms", LOWER),
    ("core.timed.start_lookup_us", "us", LOWER),
    ("core.timed.msgs_per_lookup", "count", LOWER),
    ("core.timed.lost_offline_ratio", "ratio", LOWER),
    ("sim.engine.events", "count", LOWER),
    ("sim.engine.peak_pending", "count", LOWER),
    ("sim.engine.post_pop_ns", "ns", LOWER),
    ("sim.rng.derive_calls", "count", LOWER),
    ("pastry.state.build_s", "s", LOWER),
    ("pastry.protocol.lookup_p50_ms", "ms", LOWER),
    ("pastry.protocol.lookup_p99_ms", "ms", LOWER),
    ("pastry.protocol.retx_per_lookup", "count", LOWER),
    ("pastry.views.believes_alive_calls", "count", LOWER),
    ("pastry.rejoin.is_online_calls", "count", LOWER),
    ("perturbation.flapping.is_online_calls", "count", LOWER),
    ("perturbation.flapping.is_online_ns", "ns", LOWER),
    ("perturbation.flapping.online_mask_us", "us", LOWER),
    ("perturbation.outage.online_mask_us", "us", LOWER),
    ("perturbation.timeline.online_mask_us", "us", LOWER),
    ("perturbation.timeline.is_online_ns", "ns", LOWER),
    ("service.driver.peak_in_flight", "count", LOWER),
    ("service.arrivals.generate_ms", "ms", LOWER),
    ("service.windows.summarize_ms", "ms", LOWER),
    ("experiments.spec.build_s", "s", LOWER),
    ("experiments.spec.measure_s", "s", LOWER),
    ("experiments.runtime.task_overhead_ms", "ms", LOWER),
    ("experiments.runtime.child_cold_ms", "ms", LOWER),
    ("experiments.runtime.retries", "count", LOWER),
    ("experiments.runtime.inmemory_tasks_per_s", "1/s", HIGHER),
    ("experiments.ledger.transition_ms", "ms", LOWER),
    ("experiments.ledger.resume_plan_ms", "ms", LOWER),
    ("experiments.store.save_ms", "ms", LOWER),
    ("experiments.store.aggregate_ms", "ms", LOWER),
    ("experiments.store.bytes_per_task", "count", LOWER),
    ("experiments.cli.startup_ms", "ms", LOWER),
    ("telemetry.spans_on_ratio", "ratio", LOWER),
    ("telemetry.spans_per_op", "count", LOWER),
    ("telemetry.export_ms", "ms", LOWER),
    ("bench.trace_overhead_ratio", "ratio", LOWER),
    ("bench.unattributed_share", "ratio", LOWER),
    ("bench.wrapper_share", "ratio", LOWER),
    ("bench.wrapper_call_ns", "ns", LOWER),
) + tuple((f"{layer}.self_s", "s", LOWER) for layer in SELF_TIME_LAYERS)

UNITS = {name: unit for name, unit, _better in PER_LAYER}

_PREFIX = "repro."
_INSERT = _PREFIX + "core.network.MPILNetwork.insert"
_LOOKUP = _PREFIX + "core.network.MPILNetwork.lookup"
_LOOKUP_AT = _PREFIX + "core.timed.TimedMPILNetwork.lookup_at"
_START_LOOKUP = _PREFIX + "core.timed.TimedMPILNetwork.start_lookup"
_PASTRY_LOOKUP = _PREFIX + "pastry.protocol.PastryNetwork.lookup"
_CLAIM = _PREFIX + "experiments.ledger.TaskLedger.claim"
_COMPLETE = _PREFIX + "experiments.ledger.TaskLedger.complete"

#: cold set-up: metric -> boundaries whose span durations it sums
COLD_BUILDS = {
    "overlay.power_law_build_s": (_PREFIX + "overlay.power_law.power_law_graph",),
    "overlay.random_build_s": (_PREFIX + "overlay.random_graphs.fixed_degree_random_graph",),
    "overlay.csr_s": (_PREFIX + "overlay.graph.OverlayGraph.adjacency_arrays",),
    "overlay.transit_stub_build_s": (
        _PREFIX + "overlay.transit_stub.TransitStubUnderlay.for_size",
        _PREFIX + "overlay.transit_stub.TransitStubUnderlay.random_attachment",
        _PREFIX + "sim.latency.UnderlayLatency.__init__",
    ),
    "core.metric.table_build_s": (_PREFIX + "core.metric.NeighborMetricTable.__init__",),
    "pastry.state.build_s": (_PREFIX + "pastry.protocol.PastryNetwork.__init__",),
}


def span_seconds(spans: Sequence[tuple], names: Sequence[str]) -> float:
    """Summed duration of the spans with any of ``names``."""
    return sum(span[5] - span[4] for span in spans if span[2] in names) / 1e9


def self_seconds(
    tracer: Tracer, costs: dict[bool, tuple[float, float]], scale: float = 1.0
) -> tuple[dict[str, float], float]:
    """``({layer: self seconds}, wrapper seconds)`` over everything the
    tracer holds, with the wrappers' calibrated cost (times ``scale``)
    moved out of the layers and into the second value."""
    self_ns: dict[str, float] = {}
    wrapper_ns = 0.0
    for (name, parent_layer), (calls, _total, cell_self) in tracer.cells.items():
        layer, hot = tracer.boundaries[name]
        inner, outer = costs[hot][0] * scale, costs[hot][1] * scale
        self_ns[layer] = self_ns.get(layer, 0.0) + cell_self - calls * inner
        if parent_layer:
            self_ns[parent_layer] = self_ns.get(parent_layer, 0.0) - calls * outer
        wrapper_ns += calls * (inner + outer)
    return {layer: max(0.0, ns) / 1e9 for layer, ns in self_ns.items()}, wrapper_ns / 1e9


def _calls(tracer: Tracer, name: str) -> int:
    return sum(cell[0] for (cell_name, _), cell in tracer.cells.items() if cell_name == name)


def _durations_ms(spans: Sequence[tuple], name: str) -> list[float]:
    return [(span[5] - span[4]) / 1e6 for span in spans if span[2] == name]


def _attr_sum(spans: Sequence[tuple], key: str) -> float:
    return sum(span[7][key] for span in spans)


def _with_attrs(spans: Sequence[tuple], name: str) -> list[tuple]:
    """Spans of one boundary that returned (a raising call has no attrs)."""
    return [span for span in spans if span[2] == name and span[7] is not None]


#: below this share of the traced wall the wrappers' cost is too small to
#: fit against the untraced pass; the no-op calibration stands
_FIT_FLOOR = 0.02


def fit_wrapper_scale(
    tracer: Tracer,
    costs: dict[bool, tuple[float, float]],
    traced_raw_s: float,
    untraced_equivalent_s: float,
) -> float:
    """Factor on the no-op calibration that makes the wrappers' total cost
    equal what tracing actually added to the passes.

    A no-op in a tight loop under-reads what a wrapper costs between real
    calls (colder caches, wider argument lists): on ``perturbed`` the
    layers' corrected self times summed to 15 % more than the untraced
    pass.  The work is deterministic, so ``traced - untraced`` is the
    wrappers' cost; the calibration keeps only its proportions.
    """
    _layers, estimated_s = self_seconds(tracer, costs)
    if estimated_s < _FIT_FLOOR * traced_raw_s:
        return 1.0
    return min(4.0, max(0.25, (traced_raw_s - untraced_equivalent_s) / estimated_s))


def derive(
    tracer: Tracer,
    passes: int,
    traced_wall_s: float,
    untraced_wall_s: float,
    costs: dict[bool, tuple[float, float]],
    hot_spans: Sequence[tuple],
    cold_spans: Sequence[tuple],
    events_per_pass: int,
    detail: dict[str, Any],
    probes: dict[str, float],
) -> dict[str, Optional[float]]:
    """Every ``PER_LAYER`` metric for one traced run.

    ``tracer``'s cells and ``hot_spans`` cover ``passes`` hot passes taking
    ``traced_wall_s`` raw seconds in all; ``untraced_wall_s`` is what one
    untraced pass takes at the speed the host ran the traced ones at.
    Counts and self times are reported per pass.  ``cold_spans`` are the
    traced cold set-up's.
    """
    per_pass = 1.0 / passes
    scale = fit_wrapper_scale(tracer, costs, traced_wall_s, untraced_wall_s * passes)
    layer_self, wrapper_s = self_seconds(tracer, costs, scale)
    spans = hot_spans
    out: dict[str, Optional[float]] = {name: 0.0 for name, _unit, _better in PER_LAYER}

    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0) * per_pass
    for metric, names in COLD_BUILDS.items():
        out[metric] = span_seconds(cold_spans, names)

    decide = _calls(tracer, "repro.core.routing.decide_forwarding")
    out["core.routing.decide_calls"] = decide * per_pass
    if decide:
        out["core.routing.decide_us"] = layer_self.get("core.routing", 0.0) / decide * 1e6

    inserts = _with_attrs(spans, _INSERT)
    lookups = _with_attrs(spans, _LOOKUP)
    # percentile() of no samples is 0.0: the layer was idle
    for prefix, boundary in (
        ("core.network.insert", _INSERT),
        ("core.network.lookup", _LOOKUP),
        ("core.timed.lookup_at", _LOOKUP_AT),
        ("pastry.protocol.lookup", _PASTRY_LOOKUP),
    ):
        durations = _durations_ms(spans, boundary)
        out[f"{prefix}_p50_ms"] = percentile(durations, 50)
        out[f"{prefix}_p99_ms"] = percentile(durations, 99)
    if inserts:
        out["core.network.msgs_per_insert"] = _attr_sum(inserts, "msgs") / len(inserts)
    if lookups:
        out["core.network.msgs_per_lookup"] = _attr_sum(lookups, "msgs") / len(lookups)
    sent = _attr_sum(inserts, "msgs") + _attr_sum(lookups, "msgs")
    if sent:
        out["core.network.dup_drop_ratio"] = (
            _attr_sum(inserts, "dups") + _attr_sum(lookups, "dups")
        ) / sent

    starts = _durations_ms(spans, _START_LOOKUP)
    if starts:
        out["core.timed.start_lookup_us"] = statistics.median(starts) * 1e3
    # lookup_at wraps start_lookup, so counting the inner span counts each
    # timed lookup once on both workloads
    timed = [span[7]["counters"] for span in _with_attrs(spans, _START_LOOKUP)]
    if timed:
        messages = sum(counters.messages_sent for counters in timed)
        out["core.timed.msgs_per_lookup"] = messages / len(timed)
        if messages:
            out["core.timed.lost_offline_ratio"] = (
                sum(counters.lost_offline for counters in timed) / messages
            )

    out["sim.engine.events"] = float(events_per_pass)
    out["sim.engine.peak_pending"] = float(tracer.peak_pending)
    out["sim.rng.derive_calls"] = _calls(tracer, "repro.sim.rng.derive_rng") * per_pass

    pastry = _with_attrs(spans, _PASTRY_LOOKUP)
    if pastry:
        out["pastry.protocol.retx_per_lookup"] = _attr_sum(pastry, "retx") / len(pastry)
    out["pastry.views.believes_alive_calls"] = (
        _calls(tracer, "repro.pastry.views.ProbedViewOracle.believes_alive") * per_pass
    )
    out["pastry.rejoin.is_online_calls"] = (
        _calls(tracer, "repro.pastry.rejoin.RejoinAdjustedAvailability.is_online")
        + _calls(tracer, "repro.pastry.rejoin.IntervalRejoinAvailability.is_online")
    ) * per_pass
    out["perturbation.flapping.is_online_calls"] = (
        _calls(tracer, "repro.perturbation.flapping.FlappingSchedule.is_online") * per_pass
    )

    out["service.driver.peak_in_flight"] = float(detail.get("peak_in_flight", 0))
    generate = _durations_ms(spans, "repro.service.arrivals.generate_arrivals")
    summarize = _durations_ms(spans, "repro.service.windows.summarize_windows")
    if generate:
        out["service.arrivals.generate_ms"] = statistics.median(generate)
    if summarize:
        out["service.windows.summarize_ms"] = statistics.median(summarize)

    claims = {tuple(span[7]["task"]): span for span in _with_attrs(spans, _CLAIM)}
    completes = {tuple(span[7]["task"]): span for span in _with_attrs(spans, _COMPLETE)}
    outcomes = {outcome.task: outcome for outcome in detail.get("outcomes", ())}
    overheads = [
        (completes[task][5] - claims[task][4]) / 1e6 - outcomes[task].wall_clock * 1e3
        for task in outcomes
        if task in claims and task in completes
    ]
    if overheads:
        out["experiments.runtime.task_overhead_ms"] = statistics.median(overheads)
        out["experiments.ledger.transition_ms"] = statistics.median(
            _durations_ms(spans, _CLAIM)
        ) + statistics.median(_durations_ms(spans, _COMPLETE))
    out["experiments.runtime.retries"] = float(detail.get("retries", 0))
    saves = _durations_ms(spans, "repro.experiments.store.ResultStore.save")
    if saves:
        out["experiments.store.save_ms"] = statistics.median(saves)
    out["experiments.store.aggregate_ms"] = (
        span_seconds(
            spans,
            (
                "repro.experiments.store.aggregate_results",
                "repro.experiments.store.ResultStore.write_aggregate",
            ),
        )
        * 1e3
        * per_pass
    )
    if outcomes:
        out["experiments.store.bytes_per_task"] = detail.get("bytes", 0) / len(outcomes)

    out["bench.trace_overhead_ratio"] = traced_wall_s * per_pass / untraced_wall_s
    out["bench.unattributed_share"] = max(0.0, 1.0 - tracer.root_ns / 1e9 / traced_wall_s)
    out["bench.wrapper_share"] = wrapper_s / traced_wall_s
    out["bench.wrapper_call_ns"] = sum(costs[True]) * scale
    out.update(probes)

    for layer in tracer.missing_layers:
        for name in out:
            if name.startswith(layer + "."):
                out[name] = None
    return out
