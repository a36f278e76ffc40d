"""Pastry insert/lookup protocol over static and perturbed overlays.

Stage 1 of every perturbation experiment inserts objects on the *static*
overlay ("1000 insertion requests are generated to the static overlay of
MSPastry"): the insert routes to the key's root, which stores the object —
or, in the "MSPastry with RR" (Replication on Route) variant, every node on
the route stores a replica ("every node on the route of an insertion
message stores a replica whether it's the target node or not").

Stage 2 issues lookups while nodes flap.  A lookup is simulated hop by hop
against ground-truth availability (the flapping schedule) and believed
availability (the probed-view oracle): each forward is acknowledged; an
unacknowledged send is retransmitted ``app_retransmissions`` times at RTT
scale, after which the hop is marked suspect for the remainder of this
lookup and the message re-routes around it.  The lookup succeeds iff the
delivery node holds the object (and can therefore reply directly to the
querying client).
"""

from __future__ import annotations

from typing import Optional

from repro.core.identifiers import Identifier, IdSpace
from repro.core.replicas import ReplicaDirectory
from repro.core.results import FOUND, HOP_LIMIT, MISDELIVERED, InsertResult, LookupResult
from repro.errors import ConfigurationError, IdSpaceError, RoutingError
from repro.pastry.config import PastryConfig
from repro.pastry.routing import DELIVER, pastry_next_hop, static_route
from repro.pastry.state import (
    PastryRing,
    build_leaf_sets,
    build_routing_tables,
    table_entry_count,
)
from repro.pastry.views import ProbedViewOracle
from repro.sim.availability import AlwaysOnline, AvailabilityModel
from repro.sim.counters import TrafficCounters
from repro.sim.engine import add_events_processed
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.rng import derive_rng
from repro.telemetry import current as current_telemetry
from repro.util.cache import get_or_build


class PastryNetwork:
    """A Pastry overlay with ideal initial state (built fully online).

    Parameters
    ----------
    n:
        Number of nodes; their identifiers are drawn from ``seed``.
    space:
        Identifier space; its ``digit_bits`` must match the config's ``b``.
    config:
        :class:`PastryConfig`.
    latency:
        Latency model used both for proximity neighbor selection and for
        timing perturbed lookups.
    """

    def __init__(
        self,
        n: int,
        space: IdSpace = IdSpace(),
        config: PastryConfig = PastryConfig(),
        latency: LatencyModel = ConstantLatency(0.05),
        seed: object = 0,
    ):
        if space.digit_bits != config.digit_bits:
            raise ConfigurationError(
                f"id space digit_bits ({space.digit_bits}) must equal the Pastry "
                f"b parameter ({config.digit_bits})"
            )
        self.space = space
        self.config = config
        self.latency = latency
        self.seed = seed
        # ring + leaf sets + routing tables are a pure function of (seed,
        # n, space, config, latency); scenario experiments rebuild the same
        # structure for every run at one scale, so memoise it per process
        self.structure = get_or_build(
            ("pastry-structure", repr(seed), n, space, config, id(latency)),
            lambda: self._build_structure(n),
        )
        _latency, self.ids, self.ring, self.leaf_sets, self.tables = self.structure
        self.directory = ReplicaDirectory()

    def _build_structure(self, n: int) -> tuple:
        """(latency, ids, ring, leaf sets, routing tables) — the immutable,
        purely seed-determined part of the network (the cache entry; it
        carries the latency model so the id()-keyed entry pins it)."""
        rng = derive_rng(self.seed, "pastry-node-ids", n)
        ids = tuple(self.space.random_unique_identifiers(n, rng))
        ring = PastryRing(ids)
        leaf_sets = build_leaf_sets(ring, self.config.leaf_set_size)
        tables = build_routing_tables(ring, latency=self.latency, seed=self.seed)
        return (self.latency, ids, ring, leaf_sets, tables)

    @property
    def n(self) -> int:
        return len(self.ids)

    def root(self, key: Identifier) -> int:
        return self.ring.root_of(key)

    def average_table_entries(self) -> float:
        return table_entry_count(self.tables)

    def average_leafset_size(self) -> float:
        if not self.leaf_sets:
            return 0.0
        return sum(len(ls) for ls in self.leaf_sets) / len(self.leaf_sets)

    # -- static-stage operations ----------------------------------------------

    def route_static(self, origin: int, key: Identifier) -> list[int]:
        """The static route from ``origin`` to the delivery node."""
        self._check_request(origin, key)
        return static_route(
            origin,
            key,
            self.ring,
            self.leaf_sets,
            self.tables,
            max_hops=self.config.max_route_hops,
        )

    def insert_static(
        self, origin: int, key: Identifier, replicate_on_route: bool = False
    ) -> InsertResult:
        """Insert on the fully-online overlay (stage 1): one message per
        hop of one route, so ``traffic`` and ``max_hop`` are its hops."""
        path = self.route_static(origin, key)
        add_events_processed(len(path))
        delivery = path[-1]
        if replicate_on_route:
            replicas = tuple(dict.fromkeys(path))
        else:
            replicas = (delivery,)
        for node in replicas:
            self.directory.store(node, key)
        telemetry = current_telemetry()
        spans = telemetry.spans
        if spans is not None:
            trace_id = spans.begin_trace("pastry-insert")
            parent = spans.emit(
                trace_id, "pastry-insert", node=origin, start=0.0, key=str(key)
            )
            for hop, next_node in enumerate(path[1:]):
                parent = spans.emit(
                    trace_id,
                    "forward",
                    node=path[hop],
                    start=float(hop),
                    end=float(hop + 1),
                    parent_id=parent,
                    to=next_node,
                )
            spans.emit(
                trace_id,
                "store",
                node=delivery,
                start=float(len(path) - 1),
                parent_id=parent,
                replicas=len(replicas),
            )
        telemetry.metrics.inc("pastry_inserts_total")
        hops = len(path) - 1
        return InsertResult(
            object_id=key,
            origin=origin,
            replicas=replicas,
            traffic=hops,
            duplicates=0,
            flows_created=1,
            max_hop=hops,
        )

    # -- perturbed lookup -------------------------------------------------------

    def lookup(
        self,
        origin: int,
        key: Identifier,
        start_time: float = 0.0,
        availability: AvailabilityModel = AlwaysOnline(),
        views: Optional[ProbedViewOracle] = None,
    ) -> LookupResult:
        """Route a lookup issued at ``start_time`` under perturbation.

        ``availability`` is ground truth; ``views`` supplies each hop's
        beliefs (None = perfect knowledge of the static membership, i.e.
        every node believed alive).  The lookup ends :data:`FOUND` at a
        holder, :data:`MISDELIVERED` at a delivery node that is not one, or
        at the :data:`HOP_LIMIT` (``max_route_hops``), its only drop.
        """
        self._check_request(origin, key)
        cfg = self.config
        node = origin
        time = float(start_time)
        hops = 0
        messages = 0
        retransmissions = 0
        events = 0
        learned_dead: set[int] = set()
        counters = TrafficCounters()
        result = LookupResult(key, origin, counters, start_time)

        def believes(candidate: int, kind: str) -> bool:
            """The deciding hop's belief: asked only inside
            ``pastry_next_hop``, while ``node`` and ``time`` are that hop's."""
            if candidate in learned_dead:
                return False
            if views is None:
                return True
            return views.believes_alive(node, candidate, time, kind)

        telemetry = current_telemetry()
        spans = telemetry.spans  # None unless the run opted into tracing
        trace_id = ""
        parent_sid: Optional[int] = None
        if spans is not None:
            trace_id = spans.begin_trace("pastry-lookup")
            parent_sid = spans.emit(
                trace_id, "pastry-lookup", node=origin, start=time, key=str(key)
            )

        while True:
            events += 1
            if hops >= cfg.max_route_hops:
                result.cause = HOP_LIMIT
                counters.drops_hop_limit = 1
                if spans is not None:
                    spans.emit(
                        trace_id,
                        "drop",
                        node=node,
                        start=time,
                        parent_id=parent_sid,
                        reason="hop-limit",
                    )
                break

            current = node
            decision = pastry_next_hop(
                node,
                key,
                self.ring,
                self.leaf_sets[node],
                self.tables[node],
                believes,
            )
            if decision.action == DELIVER:
                has_object = self.directory.has(node, key)
                if has_object:
                    messages += 1  # direct reply to the querying client
                    result.replies.append((node, hops))
                    result.first_reply_hop = hops
                    result.first_reply_time = time
                    result.traffic_at_first_reply = messages
                    result.cause = FOUND
                else:
                    result.cause = MISDELIVERED
                if spans is not None:
                    spans.emit(
                        trace_id,
                        "reply" if has_object else "misdeliver",
                        node=node,
                        start=time,
                        parent_id=parent_sid,
                        hop=hops,
                    )
                break

            next_node = decision.node
            hop_latency = self.latency.latency(node, next_node)
            delivered = False
            for attempt in range(cfg.app_retransmissions + 1):
                send_time = time + attempt * cfg.app_retx_interval
                if attempt == 0:
                    messages += 1
                else:
                    retransmissions += 1
                arrival = send_time + hop_latency
                sid: Optional[int] = None
                if spans is not None:
                    sid = spans.emit(
                        trace_id,
                        "send" if attempt == 0 else "retransmit",
                        node=current,
                        start=send_time,
                        end=arrival,
                        parent_id=parent_sid,
                        to=next_node,
                    )
                if availability.is_online(next_node, arrival):
                    node = next_node
                    time = arrival
                    hops += 1
                    delivered = True
                    if sid is not None:
                        parent_sid = sid
                    break
            if not delivered:
                learned_dead.add(next_node)
                if spans is not None:
                    spans.emit(
                        trace_id,
                        "declare-dead",
                        node=current,
                        start=time,
                        parent_id=parent_sid,
                        target=next_node,
                    )
                time += (cfg.app_retransmissions + 1) * cfg.app_retx_interval

        # every routing-rule evaluation plus every (re)transmission attempt
        # is one discrete simulation event
        add_events_processed(events + messages + retransmissions)
        metrics = telemetry.metrics
        metrics.inc("pastry_lookups_total")
        if result.replies:
            metrics.inc("pastry_lookups_success_total")
        metrics.inc("pastry_messages_total", messages)
        metrics.inc("pastry_retransmissions_total", retransmissions)
        counters.messages_sent = messages
        counters.retransmissions = retransmissions
        result.end_time = time
        return result

    def _check_request(self, origin: int, key: Identifier) -> None:
        if not 0 <= origin < self.n:
            raise RoutingError(f"node index {origin} out of range (n={self.n})")
        if key.space != self.space:
            raise IdSpaceError(
                f"key {key} belongs to {key.space}, not this ring's {self.space}"
            )
