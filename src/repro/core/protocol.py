"""The MPIL per-message protocol (paper Figure 5), independent of any schedule.

One :class:`MPILRequest` holds everything a request accumulates while its
message copies propagate; :meth:`MPILRequest.step` processes one delivered
copy: check duplicate, answer if holder, pick the best unvisited neighbors,
store at a local maximum, split the flow budget.  *When* a copy is
delivered is the caller's business — :class:`~repro.core.network.MPILNetwork`
pops a FIFO queue (hop-lockstep), :class:`~repro.core.timed.TimedMPILNetwork`
posts to an event heap — so both apply the same routing rule by
construction, and every MPIL span kind has exactly one emission site.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.messages import KIND_LOOKUP, MPILMessage
from repro.core.routing import decide_forwarding
from repro.sim.counters import TrafficCounters
from repro.telemetry.spans import SpanRecorder

if TYPE_CHECKING:
    from repro.core.network import MPILNetwork

#: what ``forward`` receives: a child copy and the id of the ``send`` span
#: that delivers it (``None`` unless tracing), i.e. the next ``step``
#: call's ``msg`` and ``parent_span``
Forwarded = tuple[MPILMessage, Optional[int]]


class MPILRequest:
    """Protocol state of one in-flight insertion or lookup.

    ``forward`` is called once per child copy and ``reply`` once per
    ``(holder, hop)`` hit; the schedule decides when either arrives.
    ``max_hops`` stops copies that travelled that far (``None``: no limit)
    and ``hop_time`` is the schedule's fixed per-hop delay, if it has one
    (it closes ``send`` spans at the arrival time).
    """

    def __init__(
        self,
        network: "MPILNetwork",
        first: MPILMessage,
        rng: random.Random,
        suppress: bool,
        forward: Callable[[Forwarded], object],
        reply: Callable[[tuple[int, int]], object],
        spans: Optional[SpanRecorder],
        trace_name: str,
        start: float,
        max_hops: Optional[int] = None,
        hop_time: Optional[float] = None,
    ):
        self.directory = network.directory
        self.table = network.metric_table
        self.tie_break = network.config.tie_break
        self.local_max_rule = network.config.local_max_rule
        self.first = first
        self.rng = rng
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
                node=first.origin,
                start=start,
                request=first.request_id,
                object=str(first.object_id),
            )
        self.counters = TrafficCounters()
        self.received: set[int] = set()
        self.stored: list[int] = []
        self.flows = 0
        self.max_hop = 0
        self.traffic_at_first_reply: Optional[int] = None

    def span(self, name: str, node: int, now: float, parent: Optional[int], **attrs) -> int:
        """Emit one span of this request's trace (callers check ``spans``)."""
        assert self.spans is not None
        return self.spans.emit(
            self.trace_id,
            name,
            node=node,
            start=now,
            parent_id=parent,
            request=self.first.request_id,
            **attrs,
        )

    def step(self, msg: MPILMessage, now: float, parent_span: Optional[int]) -> None:
        """Process one copy delivered to ``msg.at`` at time ``now``."""
        node = msg.at
        hop = msg.hop
        if hop > self.max_hop:
            self.max_hop = hop
        counters = self.counters
        tracing = self.spans is not None
        object_id = msg.object_id

        if node in self.received:
            counters.duplicates += 1
            if tracing:
                self.span("dup-drop" if self.suppress else "dup", node, now, parent_span)
            if self.suppress:
                return
        self.received.add(node)

        is_lookup = msg.kind == KIND_LOOKUP
        directory = self.directory
        if is_lookup and directory.has(node, object_id):
            # "each recipient node checks to see it has the object; if it
            # does, it stops forwarding the query and replies back
            # directly to the querying node."
            if self.traffic_at_first_reply is None:
                self.traffic_at_first_reply = counters.messages_sent
            counters.replies_sent += 1
            if tracing:
                self.span("reply", node, now, parent_span, hop=hop)
            self.reply((node, hop))
            return
        if self.max_hops is not None and hop >= self.max_hops:
            counters.drops_hop_limit += 1
            if tracing:
                self.span("drop", node, now, parent_span, reason="hop-limit")
            return

        excluded = set(msg.route)
        excluded.add(node)
        is_local_max, next_hops, budgets, new_flows = decide_forwarding(
            self.table.ranked_neighbors(node, object_id),
            excluded,
            msg.max_flows,
            msg.given_flows,
            self.rng,
            self.tie_break,
            self.local_max_rule,
        )

        replicas_left = msg.replicas_left
        if is_local_max:
            if not is_lookup:
                directory.store(node, object_id, msg.owner, hop=hop)
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
            child = msg.child(next_node, budget)
            child.replicas_left = replicas_left
            if tracing:
                end = None if self.hop_time is None else now + self.hop_time
                send_span = self.span("send", node, now, parent_span, end=end, to=next_node)
            forward((child, send_span))
