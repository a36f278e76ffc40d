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
this driver is a synchronous :class:`~repro.core.network.MPILNetwork` —
whose ``insert`` it inherits — with a timed lookup added.  Both run the one
per-message step of :mod:`repro.core.protocol`; this module only schedules
it: the availability check on arrival, per-hop latency, reply delivery and
completion tracking.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.config import MPILConfig
from repro.core.identifiers import Identifier, IdSpace
from repro.core.messages import KIND_LOOKUP, MPILMessage
from repro.core.network import MPILNetwork
from repro.core.protocol import Forwarded, MPILRequest
from repro.core.results import (
    FOUND,
    HOP_LIMIT,
    LOST_OFFLINE,
    NO_REPLICA_REACHABLE,
    LookupResult,
)
from repro.core.routing import decide_forwarding  # noqa: F401  (bench/tests look it up here)
from repro.errors import SimulationError
from repro.overlay.graph import OverlayGraph
from repro.sim.availability import AlwaysOnline, AvailabilityModel
from repro.sim.engine import EventScheduler
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.telemetry import current as current_telemetry


def _retired(_item: object) -> None:
    """A completed request's ``forward`` and ``reply``: nothing is left to
    send."""


class TimedMPILNetwork(MPILNetwork):
    """MPIL over an arbitrary overlay, with per-hop latency.

    Inserts are the inherited synchronous :meth:`MPILNetwork.insert` on the
    fully online overlay; lookups run in simulated time under the
    availability model each call passes.

    Parameters
    ----------
    overlay:
        Overlay adjacency (may be directed, e.g. Pastry neighbor lists).
    space, ids, seed:
        As for :class:`MPILNetwork`; ``ids`` may be shared with a
        co-simulated protocol.
    config:
        MPIL parameters; ``duplicate_suppression`` selects DS / no-DS mode.
    latency:
        Per-hop one-way latency model.
    """

    def __init__(
        self,
        overlay: OverlayGraph,
        space: IdSpace = IdSpace(),
        ids: Optional[Sequence[Identifier]] = None,
        config: MPILConfig = MPILConfig(),
        latency: LatencyModel = ConstantLatency(0.05),
        seed: object = 0,
    ):
        super().__init__(overlay, space=space, ids=ids, config=config, seed=seed)
        self.latency = latency
        self._request_counter = 0
        #: a copy that has travelled this many hops is dropped, not
        #: forwarded: four hops per identifier digit
        self._max_hops = 4 * len(self.ids[0].digits)

    def snapshot(self) -> tuple:
        """The state a borrowed run mutates besides the replica directory:
        both request counters (each request's RNG stream derives from its
        counter).  Service drivers pass it back to :meth:`restore` so a
        testbed shared across runs replays identical per-request noise.
        """
        return self._request_counter, self.next_request_id

    def restore(self, snapshot: tuple) -> None:
        self._request_counter, self.next_request_id = snapshot

    def start_lookup(
        self,
        engine: EventScheduler,
        origin: int,
        object_id: Identifier,
        start_time: Optional[float] = None,
        availability: AvailabilityModel = AlwaysOnline(),
        duplicate_suppression: Optional[bool] = None,
        on_complete: Optional[Callable[[LookupResult], None]] = None,
    ) -> LookupResult:
        """Launch a lookup on a caller-owned scheduler and return its record.

        This is the open-loop entry point: many lookups started on one
        shared ``engine`` stay in flight simultaneously, their message
        events interleaving in timestamp order — the service drivers issue
        arrivals this way while a perturbation timeline runs concurrently.
        ``start_time`` defaults to ``engine.now`` and must not precede it
        (nor be ``nan``); the first message fires when the scheduler reaches
        that time.  A copy reaching a node that ``availability`` says is
        offline at arrival is lost.  The record is complete once every
        message copy has been delivered, lost, or suppressed: then its
        ``end_time`` and ``cause`` are set and ``on_complete(result)`` is
        invoked (inside the scheduler run).
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
        is_online = availability.is_online

        outstanding = 1  # message/reply events posted but not yet executed

        def finish_event() -> None:
            """Retire one executed message/reply event; the request is
            complete when none remain outstanding."""
            nonlocal outstanding
            outstanding -= 1
            if outstanding == 0:
                # no copy is left to step: cut the request -> closure ->
                # request cycle, so the request is freed on its last
                # reference instead of waiting for a cyclic collection
                request.forward = request.reply = _retired
                result.end_time = engine.now
                result.traffic_at_first_reply = request.traffic_at_first_reply
                result.flows_created = request.flows
                if result.replies:
                    result.cause = FOUND
                elif counters.lost_offline:
                    result.cause = LOST_OFFLINE
                elif counters.drops_hop_limit:
                    result.cause = HOP_LIMIT
                else:
                    result.cause = NO_REPLICA_REACHABLE
                metrics.inc("timed_lookups_total")
                if result.replies:
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
                        success=result.success,
                        messages=counters.messages_sent,
                    )
                if on_complete is not None:
                    on_complete(result)

        def send_reply(reply: tuple[int, int]) -> None:
            nonlocal outstanding
            outstanding += 1
            engine.post(engine.now + latency(reply[0], origin), on_reply, reply)

        def on_reply(reply: tuple[int, int]) -> None:
            result.replies.append(reply)
            if result.first_reply_time is None:
                result.first_reply_time = engine.now
                result.first_reply_hop = reply[1]
            finish_event()

        def send(forwarded: Forwarded) -> None:
            nonlocal outstanding
            child = forwarded[0]
            outstanding += 1
            engine.post(engine.now + latency(child.route[-1], child.at), deliver, *forwarded)

        def deliver(msg: MPILMessage, parent_span: Optional[int]) -> None:
            now = engine.now
            if is_online(msg.at, now):
                request.step(msg, now, parent_span)
            else:
                counters.lost_offline += 1
                if request.spans is not None:
                    request.span("lost-offline", msg.at, now, parent_span)
            finish_event()

        request = MPILRequest(
            self,
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
        result = LookupResult(object_id, origin, counters, launch_time)
        engine.post(
            launch_time,
            deliver,
            request.first_copy(None, None),
            request.root_span,
        )
        return result

    def lookup_at(
        self,
        origin: int,
        object_id: Identifier,
        start_time: float,
        availability: AvailabilityModel = AlwaysOnline(),
        duplicate_suppression: Optional[bool] = None,
    ) -> LookupResult:
        """Issue a lookup at simulation time ``start_time`` under
        ``availability`` (everyone online by default).

        The request runs to quiescence (all message copies delivered, lost,
        or stopped); replies are direct messages back
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
        result = self.start_lookup(
            engine,
            origin,
            object_id,
            start_time=start_time,
            availability=availability,
            duplicate_suppression=duplicate_suppression,
        )
        engine.run()
        return result
