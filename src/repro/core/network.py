"""Synchronous MPIL driver for static overlays.

This is the reproduction of the paper's first simulator: "a simulator
written in Python that simulates overlay-level routing ... a message-level
simulator, not a packet-level simulator" (Section 6).  All nodes are
online; message propagation is hop-ordered (a FIFO queue gives exact
breadth-first timing, equivalent to unit per-hop latency), which is all the
static experiments of Section 6.1 measure.

The driver owns the overlay graph and node identifiers, the vectorised
:class:`~repro.core.metric.NeighborMetricTable`, the global
:class:`~repro.core.replicas.ReplicaDirectory` and the lockstep queue;
what a node does with a delivered copy is :mod:`repro.core.protocol`.
"""

from __future__ import annotations

import collections
from typing import Optional, Sequence

from repro.core.config import MPILConfig
from repro.core.identifiers import Identifier, IdSpace
from repro.core.messages import KIND_INSERT, KIND_LOOKUP
from repro.core.metric import NeighborMetricTable, metric_by_name
from repro.core.protocol import Forwarded, MPILRequest
from repro.core.replicas import ReplicaDirectory
from repro.core.results import FOUND, NO_REPLICA_REACHABLE, InsertResult, LookupResult
from repro.core.routing import decide_forwarding  # noqa: F401  (bench/tests look it up here)
from repro.errors import ConfigurationError
from repro.overlay.graph import OverlayGraph
from repro.sim.engine import add_events_processed
from repro.sim.rng import derive_rng
from repro.telemetry import current as current_telemetry
from repro.util.cache import BoundedCache

#: node identifiers are a pure function of (seed, n, space); sweeps and
#: repeated runs over the same cell share one tuple
_IDS_CACHE: BoundedCache[tuple] = BoundedCache(maxsize=32)
#: neighbor metric tables are pure functions of (overlay, ids, metric);
#: keyed by identity of objects the entry itself keeps alive
_METRIC_TABLE_CACHE: BoundedCache[tuple] = BoundedCache(maxsize=12)


def _cached_node_ids(space: IdSpace, n: int, seed: object) -> tuple[Identifier, ...]:
    return _IDS_CACHE.get_or_build(
        (repr(seed), n, space),
        lambda: tuple(space.random_unique_identifiers(n, derive_rng(seed, "node-ids", n))),
    )


def _cached_metric_table(
    overlay: OverlayGraph, ids: tuple[Identifier, ...], metric_name: str
) -> NeighborMetricTable:
    # the entry holds the overlay and ids so the id()-based key stays valid
    # for exactly as long as the entry lives
    return _METRIC_TABLE_CACHE.get_or_build(
        (id(overlay), id(ids), metric_name),
        lambda: (
            overlay,
            ids,
            NeighborMetricTable(overlay, ids, metric=metric_by_name(metric_name)),
        ),
    )[2]


class MPILNetwork:
    """A static overlay running the MPIL insertion/lookup protocol.

    Parameters
    ----------
    overlay:
        Any :class:`OverlayGraph` (the algorithm is overlay-independent).
    space:
        Identifier space (default: the paper's 160-bit base-16 space).
    ids:
        Optional explicit node identifiers; drawn uniformly at random
        (distinct) when omitted.
    config:
        :class:`MPILConfig` defaults for insert/lookup operations; a lookup
        may override ``max_flows`` and ``per_flow_replicas``.
    seed:
        Root seed for identifier generation and tie-break randomness.
    """

    def __init__(
        self,
        overlay: OverlayGraph,
        space: IdSpace = IdSpace(),
        ids: Optional[Sequence[Identifier]] = None,
        config: MPILConfig = MPILConfig(),
        seed: object = 0,
    ):
        self.overlay = overlay
        self.space = space
        self.config = config
        self.seed = seed
        if ids is None:
            self.ids: tuple[Identifier, ...] = _cached_node_ids(space, overlay.n, seed)
            share_table = True
        else:
            if len(ids) != overlay.n:
                raise ConfigurationError(
                    f"{len(ids)} identifiers supplied for {overlay.n} nodes"
                )
            for identifier in ids:
                if identifier.space != space:
                    raise ConfigurationError(
                        "explicit identifiers must live in the network's id space"
                    )
            # identity-keyed sharing only helps callers that reuse one ids
            # tuple (e.g. mpil_on_pastry passing the cached Pastry ids); a
            # fresh list/tuple per construction would guarantee misses while
            # churning useful entries out of the bounded cache
            share_table = isinstance(ids, tuple)
            self.ids = ids if share_table else tuple(ids)
        if share_table:
            self.metric_table = _cached_metric_table(overlay, self.ids, config.metric)
        else:
            self.metric_table = NeighborMetricTable(
                overlay, self.ids, metric=metric_by_name(config.metric)
            )
        self.directory = ReplicaDirectory()
        #: monotonic request id; each request's RNG stream derives from it
        self.next_request_id = 0

    # -- public API ---------------------------------------------------------

    def random_object_id(self, rng) -> Identifier:
        """Draw a fresh object identifier from the network's id space."""
        return self.space.random_identifier(rng)

    def insert(self, origin: int, object_id: Identifier) -> InsertResult:
        """Insert a pointer for ``object_id`` starting from ``origin``,
        with the config's flow budget."""
        request, _ = self._run_request(KIND_INSERT, origin, object_id, None, None)
        return InsertResult(
            object_id=object_id,
            origin=origin,
            replicas=tuple(sorted(request.stored)),
            traffic=request.counters.messages_sent,
            duplicates=request.counters.duplicates,
            flows_created=request.flows,
            max_hop=request.max_hop,
        )

    def lookup(
        self,
        origin: int,
        object_id: Identifier,
        max_flows: Optional[int] = None,
        per_flow_replicas: Optional[int] = None,
    ) -> LookupResult:
        """Query for ``object_id`` starting from ``origin``."""
        request, replies = self._run_request(
            KIND_LOOKUP, origin, object_id, max_flows, per_flow_replicas
        )
        return LookupResult(
            object_id,
            origin,
            request.counters,
            replies=replies,
            first_reply_hop=replies[0][1] if replies else None,
            traffic_at_first_reply=request.traffic_at_first_reply,
            flows_created=request.flows,
            cause=FOUND if replies else NO_REPLICA_REACHABLE,
        )

    def delete(self, object_id: Identifier) -> int:
        """Remove every replica of an object from the directory and return
        how many there were.  This is a directory operation, not Section
        4.4's deletion protocol (heartbeats and explicit delete messages),
        which the paper does not evaluate and this library does not model.
        """
        return self.directory.remove_object(object_id)

    # -- request propagation -------------------------------------------------

    def _run_request(
        self,
        kind: str,
        origin: int,
        object_id: Identifier,
        max_flows: Optional[int],
        per_flow_replicas: Optional[int],
    ) -> tuple[MPILRequest, list[tuple[int, int]]]:
        """Propagate one request to quiescence, hop-lockstep: a FIFO queue
        delivers copies in breadth-first order and the hop index is the
        clock.  Returns the request's accounting and its ``(holder, hop)``
        replies."""
        telemetry = current_telemetry()
        queue: collections.deque[Forwarded] = collections.deque()
        replies: list[tuple[int, int]] = []
        request = MPILRequest(
            self,
            kind,
            self.next_request_id,
            object_id,
            origin,
            stream=(self.seed, "request", self.next_request_id),
            suppress=self.config.duplicate_suppression,
            forward=queue.append,
            reply=replies.append,
            spans=telemetry.spans,
            trace_name=kind,
            start=0.0,
            hop_time=1.0,
        )
        self.next_request_id += 1
        step = request.step
        queue.append((request.first_copy(max_flows, per_flow_replicas), request.root_span))
        while queue:
            msg, parent_span = queue.popleft()
            step(msg, float(len(msg.route)), parent_span)

        counters = request.counters
        add_events_processed(1 + counters.messages_sent)  # every copy is popped once
        metrics = telemetry.metrics
        metrics.inc("mpil_requests_total", kind=kind)
        metrics.inc("mpil_messages_total", counters.messages_sent, kind=kind)
        metrics.inc("mpil_duplicates_total", counters.duplicates, kind=kind)
        metrics.inc("mpil_replies_total", len(replies))
        metrics.inc("mpil_replicas_stored_total", len(request.stored))
        metrics.histogram("mpil_request_max_hop", kind=kind).observe(request.max_hop)
        return request, replies
