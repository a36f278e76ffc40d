"""Random-walk lookups and the Section 5.1 hops validation primitive.

``random_walk_lookup`` launches ``walkers`` independent uniform random
walks (the Lv et al. style baseline); each stops when it reaches a replica
holder or exhausts its step budget.

``walk_hops_to_local_maximum`` performs the exact experiment behind the
Section 5.1 claim "the expected number of hops to reach one of the local
maxima from any node ... is simply 1/C": a uniform random walk that stops
at the first node whose MPIL metric value is a local maximum.  The
analysis tests compare its empirical mean against
:func:`repro.analysis.expected_hops_to_local_maximum`.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.identifiers import Identifier
from repro.core.metric import NeighborMetricTable
from repro.core.replicas import ReplicaDirectory
from repro.core.results import FOUND, NO_REPLICA_REACHABLE, LookupResult
from repro.errors import RoutingError
from repro.overlay.graph import OverlayGraph
from repro.sim.counters import TrafficCounters
from repro.sim.rng import derive_rng
from repro.telemetry import current as current_telemetry


def random_walk_lookup(
    overlay: OverlayGraph,
    directory: ReplicaDirectory,
    origin: int,
    object_id: Identifier,
    walkers: int = 8,
    max_steps: int = 64,
    rng: Optional[random.Random] = None,
) -> LookupResult:
    """Launch independent uniform random walks until a holder is found."""
    if not 0 <= origin < overlay.n:
        raise RoutingError(f"origin {origin} out of range (n={overlay.n})")
    if walkers < 1:
        raise RoutingError(f"walkers must be >= 1, got {walkers}")
    if max_steps < 0:
        raise RoutingError(f"max_steps must be non-negative, got {max_steps}")
    rng = rng if rng is not None else derive_rng(0, "random-walk-lookup")

    telemetry = current_telemetry()
    spans = telemetry.spans  # None unless the run opted into tracing
    trace_id = ""
    root_sid = None
    if spans is not None:
        trace_id = spans.begin_trace("walk-lookup")
        root_sid = spans.emit(
            trace_id,
            "walk-lookup",
            node=origin,
            start=0.0,
            object=str(object_id),
            walkers=walkers,
        )

    replies: list[tuple[int, int]] = []
    traffic = 0
    for walker in range(walkers):
        node = origin
        parent_sid = root_sid
        if spans is not None:
            parent_sid = spans.emit(
                trace_id,
                "walker",
                node=origin,
                start=0.0,
                parent_id=root_sid,
                walker=walker,
            )
        if directory.has(node, object_id):
            replies.append((node, 0))
            if spans is not None:
                spans.emit(
                    trace_id, "reply", node=node, start=0.0, parent_id=parent_sid, hop=0
                )
            continue
        for step in range(1, max_steps + 1):
            neighbors = overlay.neighbors(node)
            if not neighbors:
                break
            previous = node
            node = rng.choice(neighbors)
            traffic += 1
            if spans is not None:
                parent_sid = spans.emit(
                    trace_id,
                    "send",
                    node=previous,
                    start=float(step - 1),
                    end=float(step),
                    parent_id=parent_sid,
                    to=node,
                )
            if directory.has(node, object_id):
                replies.append((node, step))
                if spans is not None:
                    spans.emit(
                        trace_id,
                        "reply",
                        node=node,
                        start=float(step),
                        parent_id=parent_sid,
                        hop=step,
                    )
                break
    replies.sort(key=lambda item: item[1])
    telemetry.metrics.inc("walk_lookups_total")
    telemetry.metrics.inc("walk_messages_total", traffic)
    return LookupResult(
        object_id,
        origin,
        TrafficCounters(messages_sent=traffic),
        replies=replies,
        first_reply_hop=replies[0][1] if replies else None,
        cause=FOUND if replies else NO_REPLICA_REACHABLE,
    )


def walk_hops_to_local_maximum(
    overlay: OverlayGraph,
    metric_table: NeighborMetricTable,
    origin: int,
    object_id: Identifier,
    rng: random.Random,
    max_steps: int = 100_000,
    strict: bool = True,
) -> Optional[int]:
    """Uniform-random-walk hops until the first local maximum of the MPIL
    metric w.r.t. ``object_id``; None if the cap is hit (disconnected or
    pathological overlays).

    ``strict=True`` stops only at nodes strictly greater than every
    neighbor — the definition the Section 5 formula ``C = sum A * B^d``
    counts (B sums *strictly smaller* matches), so this is the setting the
    1/C validation uses.  ``strict=False`` uses the insertion rule ("none
    of its neighbor nodes have a higher value", ties allowed).
    """
    node = origin
    for step in range(max_steps + 1):
        scores = metric_table.scores(node, object_id)
        self_score = metric_table.self_score(node, object_id)
        if scores.size == 0:
            return step
        best = int(scores.max())
        if (self_score > best) if strict else (self_score >= best):
            return step
        neighbors = overlay.neighbors(node)
        node = rng.choice(neighbors)
    return None
