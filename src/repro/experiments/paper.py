"""The paper's evaluation: Figures 1 and 7–12 and Tables 1–3, in figure order.

Ten experiments over three set-ups, each set-up stated once elsewhere:

- Section 5's closed forms (:mod:`repro.analysis`) — ``fig7``, ``fig8``;
- Section 6.1's static power-law and random overlays
  (:mod:`repro.experiments.workloads`: the ``(family, nodes)`` grid, one
  insertion-stage run per sample graph, inserts at (30, 5) with DS on) —
  ``fig9``, ``fig10``, ``tab1``–``tab3``;
- Section 6.2's flapping Pastry testbed
  (:mod:`repro.experiments.perturbed`: the build stage, the
  ``(idle:offline, probability)`` grid, ``run_cell``) — ``fig1``,
  ``fig11``, ``fig12``.

The registry lists a module's experiments in registration order, so the
order of this file is the order of ``list``.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Iterator

from repro.analysis import expected_local_maxima_regular, expected_replicas_complete
from repro.core.identifiers import IdSpace
from repro.experiments.base import mean, success_percent
from repro.experiments.perturbed import (
    ALL_VARIANTS,
    COMPARED_VARIANTS,
    VARIANT_LABELS,
    PerturbationTestbed,
    build_stage,
    flapping_grid,
    run_cell,
)
from repro.experiments.registry import experiment
from repro.experiments.spec import Pipeline, RunContext
from repro.experiments.workloads import run_lookups, static_grid, static_runs
from repro.perturbation.scenario import PerturbationScenario

# --- Figure 1 -----------------------------------------------------------------


def _measure_fig1(
    ctx: RunContext, testbed: PerturbationTestbed, cell: PerturbationScenario
) -> Iterable[tuple]:
    (result,) = run_cell(
        testbed, cell.period_label, cell.probability, ctx.scale.perturbed_lookups, ("pastry",)
    )
    return [
        (
            cell.period_label,
            cell.probability,
            round(result.success_rate, 1),
            result.misdeliveries,
            result.drops,
        )
    ]


@experiment(
    id="fig1",
    title="Effect of perturbation on MSPastry (success rate %)",
    tags=("figure", "paper", "perturbation", "pastry"),
    figure="Figure 1",
    scenario_family="flapping",
)
def fig1() -> Pipeline:
    """Success rate of plain Pastry lookups versus flapping probability for
    idle:offline in {1:1, 45:15, 30:30, 300:300}."""
    return Pipeline(
        columns=("idle:offline", "flap_prob", "success_%", "misdeliveries", "drops"),
        key_columns=("idle:offline", "flap_prob"),
        build=build_stage,
        cells=flapping_grid("fig1"),
        measure=_measure_fig1,
        notes=(
            "paper shape: 45:15 > 30:30 > 1:1 (near-linear decay) > 300:300 "
            "(~0 for p >= 0.8)"
        ),
    )


# --- Figures 7 and 8: Section 5's closed forms --------------------------------

_BASE16 = IdSpace(bits=160, digit_bits=4)

#: Figure 8's plotted values (1.55–1.63) match the formula evaluated in the
#: *base-4* digit representation (b = 2, M = 80) of the 160-bit space — the
#: representation Section 4.2's worked probabilities use — not the base-16
#: representation of the Pastry-matched configuration.  Both are reported;
#: the base-4 series is the one to compare against the paper's plot.
_FIG8_SPACES = {
    "base-4 (b=2)": IdSpace(bits=160, digit_bits=2),
    "base-16 (b=4)": _BASE16,
}


def _cells_fig7(ctx: RunContext, built: None) -> Iterator[tuple[int, int]]:
    for n in ctx.scale.analysis_node_counts:
        for degree in ctx.scale.analysis_degrees:
            yield n, degree


def _measure_fig7(ctx: RunContext, built: None, cell: tuple[int, int]) -> Iterable[tuple]:
    n, degree = cell
    return [(n, degree, round(expected_local_maxima_regular(_BASE16, n, degree), 2))]


@experiment(
    id="fig7",
    title="Expected number of local maxima (random regular topologies)",
    tags=("figure", "paper", "analysis"),
    figure="Figure 7",
)
def fig7() -> Pipeline:
    """Expected local maxima against the number of neighbors d, per N, from
    the Section-5 formula ``N * C`` with ``C = sum_k A(k) B(k)^d``."""
    return Pipeline(
        columns=("nodes", "neighbors", "expected_local_maxima"),
        key_columns=("nodes", "neighbors"),
        cells=_cells_fig7,
        measure=_measure_fig7,
        notes=(
            "closed-form Section 5 result; paper shape: decreasing in degree, "
            "increasing in N, roughly N/(d+1)"
        ),
    )


def _cells_fig8(ctx: RunContext, built: None) -> Iterator[tuple[str, int]]:
    for label in _FIG8_SPACES:
        for n in ctx.scale.complete_node_counts:
            yield label, n


def _measure_fig8(ctx: RunContext, built: None, cell: tuple[str, int]) -> Iterable[tuple]:
    label, n = cell
    return [(label, n, round(expected_replicas_complete(_FIG8_SPACES[label], n), 4))]


@experiment(
    id="fig8",
    title="Expected number of replicas (complete topologies)",
    tags=("figure", "paper", "analysis"),
    figure="Figure 8",
)
def fig8() -> Pipeline:
    """``N * sum_k A(k) D(k)^(N-1)`` for N = 2000..16000, in both digit bases."""
    return Pipeline(
        columns=("digit_base", "nodes", "expected_replicas"),
        key_columns=("digit_base", "nodes"),
        cells=_cells_fig8,
        measure=_measure_fig8,
        notes=(
            "paper plots 1.55-1.63 slowly increasing in N; the base-4 series "
            "matches it (1.52-1.63)"
        ),
    )


# --- Figures 9 and 10: static insertion and lookup ----------------------------


def _measure_fig9(ctx: RunContext, built: None, cell: tuple[str, int]) -> Iterable[tuple]:
    family, n = cell
    inserts = [
        result
        for run in static_runs(ctx, family, n, ctx.seed)
        for result in run.insert_results
    ]
    return [
        (
            family,
            n,
            round(mean([result.replica_count for result in inserts]), 2),
            round(mean([result.traffic for result in inserts]), 2),
            sum(result.duplicates for result in inserts),
            round(mean([result.flows_created for result in inserts]), 2),
        )
    ]


@experiment(
    id="fig9",
    title="MPIL insertion: replicas, traffic, duplicate messages",
    tags=("figure", "paper", "static", "insertion"),
    figure="Figure 9",
)
def fig9() -> Pipeline:
    """Average replicas and messages per insertion and total duplicate
    messages against overlay size.  Expected shapes: replicas and traffic
    bounded well below the max_flows x per-flow-replicas = 150 cap;
    power-law curves roughly flat with duplicates growing in N; random
    curves growing in N with duplicates shrinking."""
    return Pipeline(
        columns=(
            "family",
            "nodes",
            "avg_replicas",
            "avg_traffic",
            "total_duplicates",
            "avg_flows",
        ),
        key_columns=("family", "nodes"),
        cells=static_grid,
        measure=_measure_fig9,
        notes=(
            "inserts with max_flows=30, per-flow replicas=5, DS on; replica "
            "count bounded by 150 regardless of N (paper Figure 9)"
        ),
    )


def _measure_fig10(ctx: RunContext, built: None, cell: tuple[str, int]) -> Iterable[tuple]:
    family, n = cell
    # (10, 5) is the setting that reaches 100% success in Tables 1-2
    lookups = [
        result
        for run in static_runs(ctx, family, n, ctx.seed)
        for result in run_lookups(run, 10, 5, ctx.seed)
    ]
    found = [result for result in lookups if result.success]
    traffic_at_first_reply = [
        result.traffic_at_first_reply
        for result in found
        if result.traffic_at_first_reply is not None
    ]
    return [
        (
            family,
            n,
            round(mean([result.first_reply_hop or 0 for result in found]), 3),
            round(mean([result.traffic for result in lookups]), 2),
            round(mean(traffic_at_first_reply), 2),
            success_percent([result.success for result in lookups]),
        )
    ]


@experiment(
    id="fig10",
    title="MPIL lookup latency (hops) and lookup traffic",
    tags=("figure", "paper", "static", "lookup"),
    figure="Figure 10",
)
def fig10() -> Pipeline:
    """Hop count of the first successful reply, total traffic per lookup and
    traffic up to the first reply.  Expected shape: all roughly flat as the
    overlay grows (bounded by the flow/replica budget, not by N)."""
    return Pipeline(
        columns=(
            "family",
            "nodes",
            "avg_first_reply_hops",
            "avg_total_traffic",
            "avg_traffic_at_first_reply",
            "success_%",
        ),
        key_columns=("family", "nodes"),
        cells=static_grid,
        measure=_measure_fig10,
        notes="lookups with (10, 5); paper: latency and traffic flat in N",
    )


# --- Figures 11 and 12: all variants under flapping ---------------------------


def _measure_fig11(
    ctx: RunContext, testbed: PerturbationTestbed, cell: PerturbationScenario
) -> Iterable[tuple]:
    results = run_cell(
        testbed, cell.period_label, cell.probability, ctx.scale.perturbed_lookups
    )
    by_variant = {result.variant: result for result in results}
    return [
        (
            cell.period_label,
            cell.probability,
            *(round(by_variant[v].success_rate, 1) for v in ALL_VARIANTS),
        )
    ]


@experiment(
    id="fig11",
    title="Success rate under perturbation: MSPastry vs MPIL (DS / no DS)",
    tags=("figure", "paper", "perturbation", "mpil", "pastry"),
    figure="Figure 11",
    scenario_family="flapping",
)
def fig11() -> Pipeline:
    """Three panels (idle:offline = 1:1, 30:30, 300:300), each sweeping the
    flapping probability for the four variants; plain MSPastry collapses on
    300:300."""
    return Pipeline(
        columns=(
            "idle:offline",
            "flap_prob",
            *(VARIANT_LABELS[v] for v in ALL_VARIANTS),
        ),
        key_columns=("idle:offline", "flap_prob"),
        build=build_stage,
        cells=flapping_grid("fig11"),
        measure=_measure_fig11,
        notes=(
            "success rate %; paper ordering: MPIL w/o DS >= MPIL w/ DS >= "
            "MSPastry+RR >= MSPastry"
        ),
    )


def _measure_fig12(
    ctx: RunContext, testbed: PerturbationTestbed, probability: float
) -> Iterable[tuple]:
    results = run_cell(
        testbed, "30:30", probability, ctx.scale.perturbed_lookups, COMPARED_VARIANTS
    )
    return [
        (
            VARIANT_LABELS[result.variant],
            probability,
            result.lookup_messages,
            result.retransmissions,
            round(result.maintenance_messages),
            round(result.total_messages),
        )
        for result in results
    ]


@experiment(
    id="fig12",
    title="Lookup traffic and total traffic (incl. maintenance), idle:offline=30:30",
    tags=("figure", "paper", "perturbation", "traffic"),
    figure="Figure 12",
    scenario_family="flapping",
)
def fig12() -> Pipeline:
    """Left panel: forwarded lookup messages (MPIL's multicast costs more
    than MSPastry's single path).  Right panel: total messages including
    MSPastry's maintenance probes (MPIL runs no maintenance at all)."""
    return Pipeline(
        columns=(
            "variant",
            "flap_prob",
            "lookup_messages",
            "retransmissions",
            "maintenance_messages",
            "total_messages",
        ),
        key_columns=("variant", "flap_prob"),
        build=build_stage,
        cells=lambda ctx, testbed: ctx.scale.flap_probabilities,
        measure=_measure_fig12,
        notes=(
            "paper shape: MPIL lookup traffic >> MSPastry lookup traffic, but "
            "MSPastry total traffic (incl. maintenance probes) >> MPIL total"
        ),
    )


# --- Tables 1-3: static lookup success and flow counts ------------------------

TABLE_MAX_FLOWS = (5, 10, 15)
TABLE_REPLICAS = (1, 2, 3, 4, 5)


def _measure_success_table(
    ctx: RunContext, built: None, cell: tuple[str, int]
) -> Iterable[tuple]:
    family, n = cell
    # every graph's inserts come first: each (max_flows, r) setting then
    # queries the same replica placement
    runs = list(static_runs(ctx, family, n, ctx.seed))
    return [
        (
            n,
            max_flows,
            *(
                success_percent(
                    [
                        result.success
                        for run in runs
                        for result in run_lookups(run, max_flows, replicas, ctx.seed)
                    ]
                )
                for replicas in TABLE_REPLICAS
            ),
        )
        for max_flows in TABLE_MAX_FLOWS
    ]


def _success_table(family: str) -> Pipeline:
    """Grid: nodes x max_flows x per-flow replicas, success rate in percent.
    Expected shapes: success grows with per-flow replicas and with max_flows;
    power-law needs r >= 2 to approach 100% (r = 1 sits near 50-60%); random
    overlays are near-perfect already at r = 1 and saturate at r >= 2."""
    return Pipeline(
        columns=("nodes", "max_flows", *(f"r={replicas}" for replicas in TABLE_REPLICAS)),
        key_columns=("nodes", "max_flows"),
        cells=partial(static_grid, families=(family,)),
        measure=_measure_success_table,
        notes="success rate %; inserts with (30, 5); DS on",
    )


@experiment(
    id="tab1",
    title="MPIL lookup success rate over power-law topologies",
    tags=("table", "paper", "static", "lookup"),
    figure="Table 1",
)
def tab1() -> Pipeline:
    return _success_table("power-law")


@experiment(
    id="tab2",
    title="MPIL lookup success rate over random topologies",
    tags=("table", "paper", "static", "lookup"),
    figure="Table 2",
)
def tab2() -> Pipeline:
    return _success_table("random")


def _measure_tab3(ctx: RunContext, built: None, cell: tuple[str, int]) -> Iterable[tuple]:
    family, n = cell
    flows = [
        result.flows_created
        for run in static_runs(ctx, family, n, ctx.seed)
        for result in run_lookups(run, 10, 3, ctx.seed)
    ]
    return [(family, n, round(mean(flows), 3))]


@experiment(
    id="tab3",
    title="Actual number of flows created by lookups",
    tags=("table", "paper", "static", "lookup"),
    figure="Table 3",
)
def tab3() -> Pipeline:
    """The actual flow count approaches, but stays under, the budget."""
    return Pipeline(
        columns=("family", "nodes", "actual_flows"),
        key_columns=("family", "nodes"),
        cells=static_grid,
        measure=_measure_tab3,
        notes=(
            "lookups with max_flows=10, per-flow replicas=3; paper reports "
            "8.78-9.63, growing with N"
        ),
    )
