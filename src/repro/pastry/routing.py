"""The Pastry per-hop routing rule.

Given a node's leaf set and routing table filtered through a liveness
predicate, :func:`pastry_next_hop` decides whether the node delivers the
message locally, forwards it, or (having no usable candidate) delivers to
itself as the presumed root.  The three branches mirror the published
algorithm:

1. if the key lies within the span of the (believed-alive) leaf set, the
   message goes to the numerically closest leaf (possibly the node itself);
2. otherwise the routing-table cell for (shared-prefix-length, next digit
   of the key) is used if populated and believed alive;
3. otherwise the "rare case": any known node that shares at least as long
   a prefix with the key and is numerically closer than the current node.

A hop asks the liveness predicate only the questions whose answer can
change its decision: the span check asks only the leaves that lie at or
beyond the key on the key's side and stops at the first believed alive;
the closest-leaf pick asks the leaves closer to the key than the node, in
rank order, until one is believed alive; the rare case asks only a
candidate that passes the prefix and distance filters and beats the best
believed-alive candidate so far.  A hop asks no question twice.  The
decision is the one the ask-everything rule makes, for any pure predicate.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

from repro.core.identifiers import Identifier
from repro.pastry.state import PastryRing

DELIVER = "deliver"
FORWARD = "forward"
LEAFSET = "leafset"
TABLE = "table"


@dataclasses.dataclass(frozen=True)
class HopDecision:
    """Outcome of the routing rule at one node."""

    action: str  # DELIVER or FORWARD
    node: int  # delivery node or next hop
    source: str  # "self" | "leafset" | "table" | "fallback"


def _believed_alive(candidate: int, kind: str) -> bool:
    return True


def pastry_next_hop(
    node: int,
    key: Identifier,
    ring: PastryRing,
    leaf_set: Sequence[int],
    table: dict[tuple[int, int], int],
    alive: Optional[Callable[[int, str], bool]],
) -> HopDecision:
    """Apply the Pastry routing rule at ``node`` for ``key``.

    ``alive(candidate, kind)`` reports whether this node currently believes
    ``candidate`` (known via structure ``kind`` in {"leafset", "table"}) to
    be responsive; ``alive=None`` means every candidate is believed alive
    (the static stage).  ``alive`` must be a pure function of its arguments
    within one call: which questions a hop asks depends on earlier answers.

    The questions a hop asks, in order: ``(m, "leafset")`` for leaves ``m``
    at or beyond the key's signed ring offset on the key's side (any leaf
    when the key is the node's own id) until one is believed alive — a key
    beyond every leaf asks none; if the key is inside that span,
    ``(m, "leafset")`` for the leaves whose ``(distance, value)`` rank to the
    key beats the node's own, nearest first, until one is believed alive;
    otherwise ``(entry, "table")`` for the routing-table cell, then, in the
    rare case, each leaf or table entry that shares at least the node's
    prefix with the key, is closer to it than the node, and outranks the
    best believed-alive candidate found so far.  No question is asked twice
    in one hop: a leaf's answer is reused, and a cell entry believed dead
    is not asked again.

    This is the inner loop of every lookup: ring offsets and circular
    distances are computed inline on the ring's cached raw values, and so
    is the shared-prefix length, one XOR
    (:meth:`~repro.pastry.state.PastryRing.prefix_len`).
    """
    if not leaf_set:
        # Singleton ring: the node is trivially the root.
        return HopDecision(DELIVER, node, "self")
    if alive is None:
        alive = _believed_alive
    values = ring.values
    node_value = values[node]
    key_value = key.value
    size = ring.space.size
    half = size >> 1
    # leaf -> this hop's answer to (leaf, "leafset")
    leaf_answers: dict[int, bool] = {}

    # 1. leaf-set range check: the believed-alive span [lo, hi] of signed
    # ring offsets (0, the node itself, always inside) covers the key iff
    # a believed-alive leaf lies at or beyond the key on the key's side
    key_offset = (key_value - node_value) % size
    if key_offset > half:
        key_offset -= size
    in_span = False
    for m in leaf_set:
        offset = (values[m] - node_value) % size
        if offset > half:
            offset -= size
        if 0 <= key_offset <= offset or offset <= key_offset <= 0:
            in_span = leaf_answers[m] = alive(m, LEAFSET)
            if in_span:
                break

    own_distance = node_value - key_value if node_value >= key_value else key_value - node_value
    if own_distance > size - own_distance:
        own_distance = size - own_distance
    if in_span:
        # the numerically closest believed-alive leaf, or the node itself
        own_rank = (own_distance, node_value, node)
        closer: list[tuple[int, int, int]] = []
        for m in leaf_set:
            m_value = values[m]
            distance = m_value - key_value if m_value >= key_value else key_value - m_value
            if distance > size - distance:
                distance = size - distance
            rank = (distance, m_value, m)
            if rank < own_rank:
                closer.append(rank)
        closer.sort()
        for _distance, _value, m in closer:
            answer = leaf_answers.get(m)
            if answer is None:
                answer = leaf_answers[m] = alive(m, LEAFSET)
            if answer:
                return HopDecision(FORWARD, m, "leafset")
        return HopDecision(DELIVER, node, "self")

    # 2. routing-table cell
    shared = ring.prefix_len(node, key)
    refused: Optional[int] = None  # the cell's entry, once believed dead
    if shared < key.space.num_digits:
        entry = table.get((shared, key.digit(shared)))
        if entry is not None:
            if alive(entry, TABLE):
                return HopDecision(FORWARD, entry, "table")
            refused = entry

    # 3. rare case: the best-ranked known node, believed alive, with at
    # least as long a prefix and numerically closer than the current node
    best_candidate: Optional[int] = None
    best_rank: tuple[int, int, int] | None = None
    seen: set[int] = set()
    for kind, candidates in ((LEAFSET, leaf_set), (TABLE, table.values())):
        for candidate in candidates:
            if candidate == node or candidate in seen:
                continue
            seen.add(candidate)
            c_value = values[candidate]
            distance = c_value - key_value if c_value >= key_value else key_value - c_value
            if distance > size - distance:
                distance = size - distance
            if distance >= own_distance:
                continue
            prefix = ring.prefix_len(candidate, key)
            if prefix < shared:
                continue
            rank = (-prefix, distance, c_value)
            if best_rank is not None and rank >= best_rank:
                continue
            if kind is LEAFSET:
                answer = leaf_answers.get(candidate)
                if answer is None:
                    answer = alive(candidate, LEAFSET)
            else:
                answer = candidate != refused and alive(candidate, TABLE)
            if answer:
                best_rank = rank
                best_candidate = candidate
    if best_candidate is not None:
        return HopDecision(FORWARD, best_candidate, "fallback")

    # Nothing usable: this node believes it is the closest — deliver here.
    return HopDecision(DELIVER, node, "self")


def static_route(
    origin: int,
    key: Identifier,
    ring: PastryRing,
    leaf_sets: Sequence[Sequence[int]],
    tables: Sequence[dict[tuple[int, int], int]],
    max_hops: int = 128,
) -> list[int]:
    """Route on a fully-online overlay; returns the node path including the
    origin and the delivery node."""
    path = [origin]
    node = origin
    for _ in range(max_hops):
        decision = pastry_next_hop(
            node, key, ring, leaf_sets[node], tables[node], None
        )
        if decision.action == DELIVER:
            return path
        node = decision.node
        path.append(node)
    return path  # hop cap reached; caller treats as anomalous
