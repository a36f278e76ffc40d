"""MPIL message copies.

A request (insertion or lookup) propagates as :class:`MPILMessage` copies,
one per flow segment.  What is fixed for the whole request — its kind, id,
object identifier and origin — lives once on the
:class:`~repro.core.protocol.MPILRequest` that processes the copies; a copy
carries only what varies from one copy to the next:

- ``at`` — the node it is delivered to;
- ``route`` — "a message field called route, which contains the list of
  nodes that the message has visited" (Section 4.3), used to exclude
  already-visited nodes from candidate selection.  Its length is the
  copy's hop count, and it is empty only for the copy the originator
  processes (the one whose sends all start new flows);
- ``max_flows`` — the residual flow budget for this copy;
- ``replicas_left`` — per-flow replicas still to store (insertion) or local
  maxima still allowed before the flow stops (lookup).
"""

from __future__ import annotations

import dataclasses

KIND_INSERT = "insert"
KIND_LOOKUP = "lookup"


@dataclasses.dataclass(slots=True)
class MPILMessage:
    """One flow segment of an MPIL request."""

    at: int
    route: tuple[int, ...]
    max_flows: int
    replicas_left: int
