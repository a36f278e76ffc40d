"""The MPIL forwarding decision (Figure 5's pseudo-code, as a pure function).

Given a node's neighbors ranked by their metric score against the
message's object ID, :func:`decide_forwarding` determines:

- whether the current node is a *local maximum* ("an object is inserted at
  a node when none of its neighbor nodes have a higher MPIL routing metric
  value than the node", Section 4.4);
- which neighbors the message is forwarded to (the highest-scoring
  unvisited neighbors, capped by the flow budget);
- the flow budget each child copy carries.

Keeping this a pure function of explicit inputs lets both the synchronous
static driver and the event-driven timed driver share one implementation,
and makes property testing straightforward.
"""

from __future__ import annotations

from typing import Callable, Container, NamedTuple, Sequence

from repro.core.flows import fan_out
from repro.core.metric import RankedNeighbors


class ForwardDecision(NamedTuple):
    """Outcome of one node's handling of one message copy."""

    is_local_max: bool
    next_hops: tuple[int, ...]
    budgets: tuple[int, ...]
    new_flows: int


def decide_forwarding(
    ranked: RankedNeighbors,
    excluded: Container[int],
    max_flows: int,
    given_flows: int,
    draw: Callable[[Sequence[int], int], Sequence[int]],
    tie_break: str = "random",
) -> ForwardDecision:
    """Apply the MPIL routing rule at one node.

    Parameters
    ----------
    ranked:
        ``(is_local_max, top, neighbors, order)`` — the current node's
        local-maximum verdict against the object ID, its best-scoring
        neighbors' ids, its neighbor tuple, and every neighbor's position
        in that tuple grouped into equal-score tiers, best first, in the
        layout of :func:`repro.core.metric.compact_ranking`
        (:meth:`~repro.core.metric.NeighborMetricTable.ranked_neighbors`
        keeps one per ``(node, object)``).
    excluded:
        Nodes that may not be chosen as next hops: the message's route plus
        the current node ("Choosing next_hop_list is dependent only on peers
        in neighbor_list, excluding the nodes in M.route and N").  Only
        membership is asked of it, a tier member at a time, so the route
        tuple itself serves: it holds the few nodes one copy visited.
    max_flows / given_flows:
        Flow-budget state of the message copy being processed.
    draw:
        ``draw(candidates, fanout)`` picks ``fanout`` of the tied
        ``candidates`` when ``tie_break`` is ``"random"`` — the ``sample``
        of a ``random.Random``, or a request's lazily derived stream
        (:meth:`repro.core.protocol.MPILRequest.draw`).
    tie_break:
        ``"random"`` draws which equal-metric candidates are used when
        there are more than the budget allows; ``"lowest-id"`` picks
        deterministically.

    The node is a local maximum when no neighbor, visited or not, scores
    higher (the pseudo-code's "all nodes in neighbor list"): when its own
    score is at least the top tier's.  The ranking carries that verdict.
    """
    is_local_max, top, neighbors, order = ranked
    # next_hop_list is the best tier that still has an unvisited member.  A
    # route holds the few nodes this copy visited, so that is nearly always
    # the top tier, kept as ids; a lower tier is read from ``order`` as
    # positions into ``neighbors``.  The candidates keep the tier's stored
    # order, which fixes what ``draw`` picks.
    candidates: Sequence[int]
    if len(top) == 1:
        # the top tier is one neighbor in about two decisions of three:
        # test it where it lies, no list
        candidates = () if top[0] in excluded else top
    else:
        candidates = [peer for peer in top if peer not in excluded]
    if not candidates:
        start = len(top)
        # order[degree] ends the top tier; the lower tiers' ends follow
        for end in order[len(neighbors) + 1:]:
            tier = [neighbors[p] for p in order[start:end]]
            candidates = [peer for peer in tier if peer not in excluded]
            if candidates:
                break
            start = end

    fanout, budgets, new_flows = fan_out(max_flows, given_flows, len(candidates))
    if fanout < len(candidates):
        if fanout == 0:
            candidates = ()
        elif tie_break == "random":
            candidates = draw(candidates, fanout)
        else:
            candidates = sorted(candidates)[:fanout]
    return ForwardDecision(is_local_max, tuple(candidates), budgets, new_flows)
