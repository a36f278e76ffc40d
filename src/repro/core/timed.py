"""Event-driven MPIL driver for perturbed (dynamic-availability) overlays.

Reproduces the paper's Section 6.2 setting: MPIL running over a structured
overlay's neighbor lists *without any maintenance*.  Messages take real
(simulated) time per hop; a message sent toward a node that is offline at
arrival is silently lost — MPIL has no per-hop ARQ; redundant flows are its
defence.  Because availability changes while a request is in flight,
duplicate copies processed later can take different routes, which is
exactly why "MPIL without DS always gives higher success rates than MPIL
with the duplicate suppression" under perturbation.

Insertions for the perturbation experiments happen in stage 1 on the static
overlay ("1000 insertion requests are generated to the static overlay"), so
this driver wraps a synchronous :class:`~repro.core.network.MPILNetwork`
for inserts and adds a timed ``lookup_at``.  Both run the one per-message
step of :mod:`repro.core.protocol`; this module only schedules it: the
availability check on arrival, per-hop latency, reply delivery and
completion tracking.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

from repro.core.config import MPILConfig
from repro.core.identifiers import Identifier, IdSpace
from repro.core.messages import KIND_LOOKUP, MPILMessage
from repro.core.network import MPILNetwork
from repro.core.protocol import Forwarded, MPILRequest
from repro.core.routing import decide_forwarding  # noqa: F401  (bench/tests look it up here)
from repro.errors import SimulationError
from repro.overlay.graph import OverlayGraph
from repro.sim.availability import AlwaysOnline, AvailabilityModel
from repro.sim.counters import TrafficCounters
from repro.sim.engine import EventScheduler
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.telemetry import current as current_telemetry


@dataclasses.dataclass(frozen=True)
class TimedLookupResult:
    """Outcome of one timed MPIL lookup."""

    object_id: Identifier
    origin: int
    start_time: float
    success: bool
    first_reply_time: Optional[float]
    first_reply_hop: Optional[int]
    replies: tuple[tuple[int, int], ...]
    counters: TrafficCounters

    @property
    def latency(self) -> Optional[float]:
        if self.first_reply_time is None:
            return None
        return self.first_reply_time - self.start_time


class PendingLookup:
    """One in-flight timed lookup on a (possibly shared) scheduler.

    :meth:`TimedMPILNetwork.start_lookup` returns the handle immediately;
    the request's message events then run whenever the caller's scheduler
    executes them, interleaved with any other in-flight requests — the
    open-loop service drivers keep hundreds of these live at once.  The
    request is *complete* once every message copy it spawned has been
    delivered, lost, or suppressed (``outstanding`` reaches zero), at which
    point ``done`` flips and the optional completion callback fires.
    """

    __slots__ = (
        "object_id",
        "origin",
        "start_time",
        "counters",
        "replies",
        "first_reply_time",
        "first_reply_hop",
        "outstanding",
        "done",
    )

    def __init__(
        self, object_id: Identifier, origin: int, start_time: float, counters: TrafficCounters
    ):
        self.object_id = object_id
        self.origin = origin
        self.start_time = start_time
        self.counters = counters
        self.replies: list[tuple[int, int]] = []
        self.first_reply_time: Optional[float] = None
        self.first_reply_hop: Optional[int] = None
        #: message/reply events posted but not yet executed
        self.outstanding = 0
        self.done = False

    @property
    def success(self) -> bool:
        return bool(self.replies)

    def result(self) -> TimedLookupResult:
        """Snapshot the request as an immutable result (valid any time; the
        drivers call it after completion or a deadline cut-off)."""
        return TimedLookupResult(
            object_id=self.object_id,
            origin=self.origin,
            start_time=self.start_time,
            success=bool(self.replies),
            first_reply_time=self.first_reply_time,
            first_reply_hop=self.first_reply_hop,
            replies=tuple(self.replies),
            counters=self.counters,
        )


class TimedMPILNetwork:
    """MPIL over an arbitrary overlay with per-node availability.

    Parameters
    ----------
    overlay:
        Overlay adjacency (may be directed, e.g. Pastry neighbor lists).
    ids:
        Node identifiers (shared with any co-simulated protocol).
    config:
        MPIL parameters; ``duplicate_suppression`` selects DS / no-DS mode.
    availability:
        Ground-truth availability model (e.g. a flapping schedule).
    latency:
        Per-hop one-way latency model.
    """

    def __init__(
        self,
        overlay: OverlayGraph,
        space: IdSpace = IdSpace(),
        ids: Optional[Sequence[Identifier]] = None,
        config: MPILConfig = MPILConfig(),
        availability: AvailabilityModel = AlwaysOnline(),
        latency: LatencyModel = ConstantLatency(0.05),
        seed: object = 0,
    ):
        self.static = MPILNetwork(
            overlay, space=space, ids=ids, config=config, seed=seed
        )
        self.availability = availability
        self.latency = latency
        self.config = config
        self.seed = seed
        self._request_counter = 0
        self._max_hops = (
            config.max_hops if config.max_hops is not None else 4 * len(self.ids[0].digits)
        )

    def snapshot(self) -> tuple:
        """The state a borrowed run mutates besides the replica directory:
        the availability model and both request counters (each request's
        RNG stream derives from its counter).  Service drivers pass it back
        to :meth:`restore` so a testbed shared across runs replays identical
        per-request noise.
        """
        return self.availability, self._request_counter, self.static.next_request_id

    def restore(self, snapshot: tuple) -> None:
        self.availability, self._request_counter, self.static.next_request_id = snapshot

    # Convenience passthroughs ------------------------------------------------

    @property
    def overlay(self) -> OverlayGraph:
        return self.static.overlay

    @property
    def ids(self):
        return self.static.ids

    @property
    def directory(self):
        return self.static.directory

    def random_object_id(self, rng) -> Identifier:
        """Draw a fresh object identifier from the network's id space."""
        return self.static.random_object_id(rng)

    def insert_static(self, origin: int, object_id: Identifier, **kwargs):
        """Stage-1 insertion on the static (fully online) overlay."""
        return self.static.insert(origin, object_id, **kwargs)

    # Timed lookup -------------------------------------------------------------

    def start_lookup(
        self,
        engine: EventScheduler,
        origin: int,
        object_id: Identifier,
        start_time: Optional[float] = None,
        max_flows: Optional[int] = None,
        per_flow_replicas: Optional[int] = None,
        duplicate_suppression: Optional[bool] = None,
        on_complete: Optional[Callable[["PendingLookup"], None]] = None,
    ) -> PendingLookup:
        """Launch a lookup on a caller-owned scheduler and return its handle.

        This is the open-loop entry point: many lookups started on one
        shared ``engine`` stay in flight simultaneously, their message
        events interleaving in timestamp order — the service drivers issue
        arrivals this way while a perturbation timeline runs concurrently.
        ``start_time`` defaults to ``engine.now`` and must not precede it
        (nor be ``nan``); the first message fires when the scheduler reaches
        that time.  ``on_complete(pending)`` is invoked (inside the
        scheduler run) once every message copy has been delivered, lost, or
        suppressed.
        """
        launch_time = engine.now if start_time is None else float(start_time)
        if not launch_time >= engine.now:
            # refused before the request takes a number or opens a trace: a
            # retried call must draw the stream the refused one would have
            raise SimulationError(
                f"cannot start a lookup at t={launch_time} before current time t={engine.now}"
            )
        telemetry = current_telemetry()
        metrics = telemetry.metrics
        latency = self.latency.latency

        def finish_event() -> None:
            """Retire one executed message/reply event; the request is
            complete when none remain outstanding."""
            pending.outstanding -= 1
            if pending.outstanding == 0 and not pending.done:
                pending.done = True
                metrics.inc("timed_lookups_total")
                if pending.replies:
                    metrics.inc("timed_lookups_success_total")
                metrics.inc("timed_messages_total", counters.messages_sent)
                metrics.inc("timed_lost_offline_total", counters.lost_offline)
                metrics.inc("timed_duplicates_total", counters.duplicates)
                if request.spans is not None:
                    request.spans.emit(
                        request.trace_id,
                        "complete",
                        node=origin,
                        start=launch_time,
                        end=engine.now,
                        parent_id=request.root_span,
                        success=pending.success,
                        messages=counters.messages_sent,
                    )
                if on_complete is not None:
                    on_complete(pending)

        def send_reply(reply: tuple[int, int]) -> None:
            pending.outstanding += 1
            engine.post(engine.now + latency(reply[0], origin), on_reply, reply)

        def on_reply(reply: tuple[int, int]) -> None:
            counters.replies_received += 1
            pending.replies.append(reply)
            if pending.first_reply_time is None:
                pending.first_reply_time = engine.now
                pending.first_reply_hop = reply[1]
            finish_event()

        def send(forwarded: Forwarded) -> None:
            child = forwarded[0]
            pending.outstanding += 1
            engine.post(engine.now + latency(child.route[-1], child.at), deliver, *forwarded)

        def deliver(msg: MPILMessage, parent_span: Optional[int]) -> None:
            now = engine.now
            if self.availability.is_online(msg.at, now):
                request.step(msg, now, parent_span)
            else:
                counters.lost_offline += 1
                if request.spans is not None:
                    request.span("lost-offline", msg.at, now, parent_span)
            finish_event()

        request = MPILRequest(
            self.static,
            KIND_LOOKUP,
            self._request_counter,
            object_id,
            origin,
            stream=(self.seed, "timed-request", self._request_counter),
            suppress=(
                self.config.duplicate_suppression
                if duplicate_suppression is None
                else duplicate_suppression
            ),
            forward=send,
            reply=send_reply,
            spans=telemetry.spans,
            trace_name="timed-lookup",
            start=launch_time,
            max_hops=self._max_hops,
        )
        self._request_counter += 1
        counters = request.counters
        pending = PendingLookup(object_id, origin, launch_time, counters)
        pending.outstanding += 1
        engine.post(
            launch_time,
            deliver,
            request.first_copy(max_flows, per_flow_replicas),
            request.root_span,
        )
        return pending

    def lookup_at(
        self,
        origin: int,
        object_id: Identifier,
        start_time: float,
        max_flows: Optional[int] = None,
        per_flow_replicas: Optional[int] = None,
        deadline: Optional[float] = None,
        duplicate_suppression: Optional[bool] = None,
    ) -> TimedLookupResult:
        """Issue a lookup at simulation time ``start_time``.

        The request runs to quiescence (all message copies delivered, lost,
        or stopped) or until ``deadline``; replies are direct messages back
        to the origin, which is assumed reachable (the experiment harness
        exempts the querying client from flapping, matching the paper's
        single always-querying node).  ``duplicate_suppression`` overrides
        the network config for this call — the Figure 11 experiment runs
        "MPIL with DS" and "MPIL without DS" against one shared insert
        stage.  This is the run-to-completion wrapper over
        :meth:`start_lookup`, which the open-loop service drivers use
        directly to keep many lookups in flight on one shared scheduler.
        """
        engine = EventScheduler(start_time=start_time)
        pending = self.start_lookup(
            engine,
            origin,
            object_id,
            start_time=start_time,
            max_flows=max_flows,
            per_flow_replicas=per_flow_replicas,
            duplicate_suppression=duplicate_suppression,
        )
        engine.run(until=deadline)
        return pending.result()
