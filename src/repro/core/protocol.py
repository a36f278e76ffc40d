"""The MPIL per-message protocol (paper Figure 5), independent of any schedule.

One :class:`MPILRequest` holds what is fixed for a request — its kind, id,
object, origin, the metric table's entry for the object and the label of
its tie-break stream — and everything the request accumulates while its
message copies propagate; :meth:`MPILRequest.step` processes one delivered
copy: check duplicate, answer if holder, pick the best unvisited neighbors,
store at a local maximum, split the flow budget.  A copy
(:class:`~repro.core.messages.MPILMessage`) carries only what varies from
copy to copy.  *When* a copy is delivered is the caller's business —
:class:`~repro.core.network.MPILNetwork` pops a FIFO queue (hop-lockstep),
:class:`~repro.core.timed.TimedMPILNetwork` posts to an event heap — so
both apply the same routing rule by construction, and every MPIL span kind
has exactly one emission site.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.core.identifiers import Identifier
from repro.core.messages import KIND_LOOKUP, MPILMessage
from repro.core.routing import decide_forwarding
from repro.errors import RoutingError
from repro.sim.counters import TrafficCounters
from repro.sim.rng import derive_rng
from repro.telemetry.spans import SpanRecorder

if TYPE_CHECKING:
    from repro.core.network import MPILNetwork

#: what ``forward`` receives: a child copy and the id of the ``send`` span
#: that delivers it (``None`` unless tracing), i.e. the next ``step``
#: call's ``msg`` and ``parent_span``
Forwarded = tuple[MPILMessage, Optional[int]]


class MPILRequest:
    """Protocol state of one in-flight insertion or lookup.

    ``kind`` … ``origin`` are the request's constants; a driver enqueues
    :meth:`first_copy` and hands every delivered copy to :meth:`step`.
    ``stream`` is the label path of the request's tie-break stream
    (``derive_rng(*stream)``), derived by :meth:`draw` on the first tie.
    ``forward`` is called once per child copy and ``reply`` once per
    ``(holder, hop)`` hit; the schedule decides when either arrives.
    ``max_hops`` stops copies that travelled that far (``None``: no limit)
    and ``hop_time`` is the schedule's fixed per-hop delay, if it has one
    (it closes ``send`` spans at the arrival time).

    An ``origin`` outside the overlay raises :class:`RoutingError` before
    anything is recorded, so a driver that numbers its requests consumes
    the number only once the request exists.
    """

    def __init__(
        self,
        network: "MPILNetwork",
        kind: str,
        request_id: int,
        object_id: Identifier,
        origin: int,
        stream: tuple,
        suppress: bool,
        forward: Callable[[Forwarded], object],
        reply: Callable[[tuple[int, int]], object],
        spans: Optional[SpanRecorder],
        trace_name: str,
        start: float,
        max_hops: Optional[int] = None,
        hop_time: Optional[float] = None,
    ):
        if not 0 <= origin < network.overlay.n:
            raise RoutingError(f"node index {origin} out of range (n={network.overlay.n})")
        self.config = config = network.config
        self.directory = network.directory
        table = network.metric_table
        #: the object's cache entry, ``node → RankedNeighbors``; a miss asks
        #: the table, which ranks the node into its entry for the object
        self.ranked = table.entry(object_id)
        self.ranked_neighbors = table.ranked_neighbors
        self.tie_break = config.tie_break
        self.is_lookup = kind == KIND_LOOKUP
        self.request_id = request_id
        self.object_id = object_id
        self.origin = origin
        self.stream = stream
        self.rng: Optional[random.Random] = None
        self.suppress = suppress
        self.max_hops = max_hops
        self.hop_time = hop_time
        self.forward = forward
        self.reply = reply
        self.spans = spans
        self.trace_id = ""
        self.root_span: Optional[int] = None
        if spans is not None:
            self.trace_id = spans.begin_trace(trace_name)
            self.root_span = spans.emit(
                self.trace_id,
                trace_name,
                node=origin,
                start=start,
                request=request_id,
                object=str(object_id),
            )
        self.counters = TrafficCounters()
        self.received: set[int] = set()
        self.stored: list[int] = []
        self.flows = 0
        self.max_hop = 0
        self.traffic_at_first_reply: Optional[int] = None

    def first_copy(
        self, max_flows: Optional[int], per_flow_replicas: Optional[int]
    ) -> MPILMessage:
        """The copy the originator processes; ``None`` budgets take the
        network config's."""
        config = self.config
        return MPILMessage(
            self.origin,
            (),
            config.max_flows if max_flows is None else max_flows,
            config.per_flow_replicas if per_flow_replicas is None else per_flow_replicas,
        )

    def draw(self, candidates: Sequence[int], fanout: int) -> list[int]:
        """``fanout`` of the tied ``candidates``, from the request's own
        stream.  Three requests in five never tie, and seeding a generator
        costs more than routing a copy, so the stream is derived here, on
        the first tie, not when the request starts."""
        rng = self.rng
        if rng is None:
            rng = self.rng = derive_rng(*self.stream)
        return rng.sample(candidates, fanout)

    def span(self, name: str, node: int, now: float, parent: Optional[int], **attrs) -> int:
        """Emit one span of this request's trace (callers check ``spans``)."""
        assert self.spans is not None
        return self.spans.emit(
            self.trace_id,
            name,
            node=node,
            start=now,
            parent_id=parent,
            request=self.request_id,
            **attrs,
        )

    def step(self, msg: MPILMessage, now: float, parent_span: Optional[int]) -> None:
        """Process one copy delivered to ``msg.at`` at time ``now``."""
        node = msg.at
        route = msg.route
        hop = len(route)
        if hop > self.max_hop:
            self.max_hop = hop
        counters = self.counters
        tracing = self.spans is not None
        object_id = self.object_id

        if node in self.received:
            counters.duplicates += 1
            if tracing:
                self.span("dup-drop" if self.suppress else "dup", node, now, parent_span)
            if self.suppress:
                return
        self.received.add(node)

        is_lookup = self.is_lookup
        directory = self.directory
        if is_lookup and directory.has(node, object_id):
            # "each recipient node checks to see it has the object; if it
            # does, it stops forwarding the query and replies back
            # directly to the querying node."
            if self.traffic_at_first_reply is None:
                self.traffic_at_first_reply = counters.messages_sent
            if tracing:
                self.span("reply", node, now, parent_span, hop=hop)
            self.reply((node, hop))
            return
        if self.max_hops is not None and hop >= self.max_hops:
            counters.drops_hop_limit += 1
            if tracing:
                self.span("drop", node, now, parent_span, reason="hop-limit")
            return

        # the nodes no child may go to — "excluding the nodes in M.route and
        # N" — are exactly the route every child carries: one tuple is both
        route += (node,)
        ranked = self.ranked.get(node)
        if ranked is None:
            ranked = self.ranked_neighbors(node, object_id)
        is_local_max, next_hops, budgets, new_flows = decide_forwarding(
            ranked,
            route,
            msg.max_flows,
            1 if hop else 0,  # only the originator's copy has travelled nowhere
            self.draw,
            self.tie_break,
        )

        replicas_left = msg.replicas_left
        if is_local_max:
            if not is_lookup:
                directory.store(node, object_id)
                if node not in self.stored:
                    self.stored.append(node)
                if tracing:
                    self.span("store", node, now, parent_span)
            replicas_left -= 1
            if replicas_left <= 0:
                return

        self.flows += new_flows
        forward = self.forward
        send_span: Optional[int] = None
        for next_node, budget in zip(next_hops, budgets):
            counters.messages_sent += 1
            if tracing:
                end = None if self.hop_time is None else now + self.hop_time
                send_span = self.span("send", node, now, parent_span, end=end, to=next_node)
            forward((MPILMessage(next_node, route, budget, replicas_left), send_span))
