"""Result records returned by the lookup and insert drivers.

Every metric the paper reports for Figures 9–12 and Tables 1–3 is read
from these records: replica counts, traffic ("a counter is increased by one
whenever a node sends a message to a single neighbor"), duplicate messages
("whenever a node receives the same insertion request from a different
neighbor, it is considered as a duplicate request"), flows actually
created, hops of the first successful reply, and the traffic consumed up to
that first reply.

Every lookup driver — synchronous and timed MPIL, Pastry, flooding and
random walks — returns one :class:`LookupResult`, whose ``counters`` are
the lookup's own :class:`~repro.sim.counters.TrafficCounters` and whose
``cause`` says, once the lookup completes, why it ended: one of
:data:`FOUND`, :data:`NO_REPLICA_REACHABLE`, :data:`LOST_OFFLINE`,
:data:`HOP_LIMIT` or :data:`MISDELIVERED`.  Every insert driver, MPIL
and Pastry, returns one :class:`InsertResult`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.identifiers import Identifier
from repro.sim.counters import TrafficCounters

#: a holder replied
FOUND = "found"
#: every copy ran out of places to go without meeting a holder
NO_REPLICA_REACHABLE = "no-replica-reachable"
#: no reply, and at least one copy was sent to a node that was offline
LOST_OFFLINE = "lost-offline"
#: no reply, nothing lost, and at least one copy hit the hop limit
HOP_LIMIT = "hop-limit"
#: Pastry delivered the lookup to a node that does not hold the object
MISDELIVERED = "misdelivered"


@dataclasses.dataclass(frozen=True)
class InsertResult:
    """Outcome of one insertion, MPIL or Pastry (one route, one flow)."""

    object_id: Identifier
    origin: int
    replicas: tuple[int, ...]
    traffic: int
    duplicates: int
    flows_created: int
    max_hop: int

    @property
    def replica_count(self) -> int:
        return len(self.replicas)


@dataclasses.dataclass(slots=True)
class LookupResult:
    """One lookup, from any driver, in flight or complete.

    ``start_time``, ``first_reply_time`` and ``end_time`` are simulated
    time for the clocked drivers (timed MPIL, Pastry); the hop-lockstep
    drivers leave the reply and end times ``None``.  A timed lookup is
    returned in flight and is complete once ``cause`` is set (``done``).
    ``flows_created`` counts MPIL flows and stays 0 for the other drivers.
    """

    object_id: Identifier
    origin: int
    counters: TrafficCounters
    start_time: float = 0.0
    #: ``(holder node, hop)`` pairs, in arrival order
    replies: list[tuple[int, int]] = dataclasses.field(default_factory=list)
    first_reply_hop: Optional[int] = None
    first_reply_time: Optional[float] = None
    end_time: Optional[float] = None
    traffic_at_first_reply: Optional[int] = None
    flows_created: int = 0
    cause: Optional[str] = None

    @property
    def success(self) -> bool:
        return bool(self.replies)

    @property
    def done(self) -> bool:
        return self.cause is not None

    @property
    def latency(self) -> Optional[float]:
        if self.first_reply_time is None:
            return None
        return self.first_reply_time - self.start_time

    @property
    def traffic(self) -> int:
        return self.counters.messages_sent

    @property
    def duplicates(self) -> int:
        return self.counters.duplicates

    @property
    def retransmissions(self) -> int:
        return self.counters.retransmissions

    @property
    def messages(self) -> int:
        """``traffic`` under its old Pastry name; the benchmark's tracer
        (``bench/tracing.py``) is its only reader."""
        return self.counters.messages_sent
