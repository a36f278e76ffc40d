"""TTL-limited flooding lookup (the Gnutella baseline).

A query floods breadth-first: every node that receives it for the first
time forwards it to all neighbors except the one it came from, until the
TTL is exhausted.  Nodes holding the object reply and do not forward
further.  Traffic counts every per-edge send, like the MPIL drivers.
"""

from __future__ import annotations

import collections
from typing import Optional

from repro.core.identifiers import Identifier
from repro.core.replicas import ReplicaDirectory
from repro.core.results import FOUND, NO_REPLICA_REACHABLE, LookupResult
from repro.errors import RoutingError
from repro.overlay.graph import OverlayGraph
from repro.sim.counters import TrafficCounters
from repro.telemetry import current as current_telemetry


def flood_lookup(
    overlay: OverlayGraph,
    directory: ReplicaDirectory,
    origin: int,
    object_id: Identifier,
    ttl: int = 4,
) -> LookupResult:
    """Flood a query from ``origin`` with the given TTL (in hops).

    >>> # doctest-free: exercised in tests/test_baselines.py
    """
    if not 0 <= origin < overlay.n:
        raise RoutingError(f"origin {origin} out of range (n={overlay.n})")
    if ttl < 0:
        raise RoutingError(f"ttl must be non-negative, got {ttl}")

    telemetry = current_telemetry()
    spans = telemetry.spans  # None unless the run opted into tracing
    trace_id = ""
    sid: Optional[int] = None
    if spans is not None:
        trace_id = spans.begin_trace("flood-lookup")
        sid = spans.emit(
            trace_id,
            "flood-lookup",
            node=origin,
            start=0.0,
            object=str(object_id),
            ttl=ttl,
        )

    replies: list[tuple[int, int]] = []
    traffic = 0
    seen = {origin}
    frontier: collections.deque[tuple[int, int, int, Optional[int]]] = collections.deque()
    # (node, hop, parent, span id of the send that delivered the copy)
    frontier.append((origin, 0, -1, sid))
    while frontier:
        node, hop, parent, parent_sid = frontier.popleft()
        if directory.has(node, object_id):
            replies.append((node, hop))
            if spans is not None:
                spans.emit(
                    trace_id,
                    "reply",
                    node=node,
                    start=float(hop),
                    parent_id=parent_sid,
                    hop=hop,
                )
            continue  # a holder answers and stops forwarding
        if hop >= ttl:
            continue
        for neighbor in overlay.neighbors(node):
            if neighbor == parent:
                continue
            traffic += 1
            if neighbor in seen:
                if spans is not None:
                    spans.emit(
                        trace_id,
                        "dup-drop",
                        node=neighbor,
                        start=float(hop + 1),
                        parent_id=parent_sid,
                    )
                continue
            seen.add(neighbor)
            if spans is not None:
                sid = spans.emit(
                    trace_id,
                    "send",
                    node=node,
                    start=float(hop),
                    end=float(hop + 1),
                    parent_id=parent_sid,
                    to=neighbor,
                )
            frontier.append((neighbor, hop + 1, node, sid))
    replies.sort(key=lambda item: item[1])
    telemetry.metrics.inc("flood_lookups_total")
    telemetry.metrics.inc("flood_messages_total", traffic)
    return LookupResult(
        object_id,
        origin,
        TrafficCounters(messages_sent=traffic),
        replies=replies,
        first_reply_hop=replies[0][1] if replies else None,
        cause=FOUND if replies else NO_REPLICA_REACHABLE,
    )
