"""Static-overlay workloads shared by fig9/fig10 and Tables 1–3.

Methodology (paper Section 6.1): "For each overlay, random nodes are chosen
to insert objects with different IDs 100 times.  After that, those 100
objects are queried one by one again by randomly chosen nodes."  Insertions
use max_flows = 30 and per-flow replicas = 5; lookup parameters vary per
table.  Duplicate suppression is on for all static runs.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, Sequence

from repro.core.config import MPILConfig
from repro.core.identifiers import Identifier, IdSpace
from repro.core.network import MPILNetwork
from repro.core.results import InsertResult, LookupResult
from repro.errors import ExperimentError
from repro.experiments.spec import RunContext
from repro.overlay.graph import OverlayGraph
from repro.overlay.power_law import power_law_graph
from repro.overlay.random_graphs import fixed_degree_random_graph
from repro.sim.rng import derive_rng
from repro.util.cache import BoundedCache

#: the paper's insertion parameters for all static experiments
INSERT_MAX_FLOWS = 30
INSERT_PER_FLOW_REPLICAS = 5

def _random_family_degree(n: int) -> int:
    """The paper uses degree 100; small (test-scale) overlays scale it down
    to n/10 so the graph stays sparse relative to its size."""
    return min(100, max(4, n // 10))


#: overlay families evaluated in Section 6.1
FAMILIES: dict[str, Callable[[int, object], OverlayGraph]] = {
    "power-law": lambda n, seed: power_law_graph(n, seed=seed),
    "random": lambda n, seed: fixed_degree_random_graph(
        n, degree=_random_family_degree(n), seed=seed
    ),
}


#: sample graphs are immutable and purely seed-determined; fig9/fig10 and
#: Tables 1-3 all draw the same cells, so one process builds each graph once
_OVERLAY_CACHE: BoundedCache[OverlayGraph] = BoundedCache(maxsize=12)


def make_overlay(family: str, n: int, graph_index: int, seed: object) -> OverlayGraph:
    """One of the family's sample graphs (paper: 10 per setting)."""
    return _OVERLAY_CACHE.get_or_build(
        (family, n, graph_index, repr(seed)),
        lambda: FAMILIES[family](n, (seed, family, n, graph_index)),
    )


@dataclasses.dataclass
class StaticRun:
    """One overlay instance with its inserted objects and per-op results."""

    family: str
    n: int
    graph_index: int
    network: MPILNetwork
    objects: list[Identifier]
    insert_results: list[InsertResult]


def run_inserts(
    family: str,
    n: int,
    graph_index: int,
    num_ops: int,
    seed: object,
    space: IdSpace = IdSpace(),
    config: MPILConfig | None = None,
) -> StaticRun:
    """Generate an overlay and perform the insertion stage."""
    overlay = make_overlay(family, n, graph_index, seed)
    if config is None:
        config = MPILConfig(
            max_flows=INSERT_MAX_FLOWS,
            per_flow_replicas=INSERT_PER_FLOW_REPLICAS,
            duplicate_suppression=True,
        )
    network = MPILNetwork(
        overlay, space=space, config=config, seed=(seed, family, n, graph_index)
    )
    rng = derive_rng(seed, "workload", family, n, graph_index)
    objects: list[Identifier] = []
    insert_results: list[InsertResult] = []
    for _ in range(num_ops):
        origin = rng.randrange(overlay.n)
        object_id = network.random_object_id(rng)
        objects.append(object_id)
        insert_results.append(network.insert(origin, object_id))
    return StaticRun(
        family=family,
        n=n,
        graph_index=graph_index,
        network=network,
        objects=objects,
        insert_results=insert_results,
    )


def run_lookups(
    run: StaticRun,
    max_flows: int,
    per_flow_replicas: int,
    seed: object,
) -> list[LookupResult]:
    """Query every inserted object once from a random node."""
    rng = derive_rng(
        seed, "lookups", run.family, run.n, run.graph_index, max_flows, per_flow_replicas
    )
    results = []
    for object_id in run.objects:
        origin = rng.randrange(run.network.overlay.n)
        results.append(
            run.network.lookup(
                origin,
                object_id,
                max_flows=max_flows,
                per_flow_replicas=per_flow_replicas,
            )
        )
    return results


def static_sizes(ctx: RunContext) -> tuple[int, ...]:
    """The scale's static overlay sizes, once a static cell is known to be
    non-empty.

    A scale with no size, no sample graph or no operation (a ``[scale]``
    table or ``Scale.evolve`` can spell one) would otherwise print an empty
    table or a "0 % success" for lookups that were never issued; it is one
    error naming the field, before any overlay is built.
    """
    scale = ctx.scale
    if not scale.static_node_counts:
        raise ExperimentError(
            f"scale {scale.name!r} has no static_node_counts; a static "
            f"experiment needs at least one overlay size"
        )
    for field in ("static_graphs", "static_ops"):
        value = getattr(scale, field)
        if not isinstance(value, int) or value < 1:
            raise ExperimentError(
                f"scale {scale.name!r} has {field}={value!r}; a static "
                f"experiment needs a positive integer"
            )
    return scale.static_node_counts


def static_grid(
    ctx: RunContext, built: object = None, families: Sequence[str] = tuple(FAMILIES)
) -> Iterator[tuple[str, int]]:
    """The ``(family, nodes)`` cells of Section 6.1 — a sweep stage as it
    stands, or through ``partial(static_grid, families=...)`` for a table
    that covers one family."""
    sizes = static_sizes(ctx)
    for family in families:
        for n in sizes:
            yield family, n


def static_runs(
    ctx: RunContext,
    family: str,
    n: int,
    seed: object,
    config: MPILConfig | None = None,
) -> Iterator[StaticRun]:
    """One insertion-stage run per sample graph of the ``(family, n)`` cell.

    Lazy on purpose: a caller that looks its objects up again does so
    before the next graph's inserts start, which is the request order the
    artifacts and span streams record.
    """
    static_sizes(ctx)
    for graph_index in range(ctx.scale.static_graphs):
        yield run_inserts(
            family, n, graph_index, ctx.scale.static_ops, seed, config=config
        )
