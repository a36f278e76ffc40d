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

from typing import Callable, Container, NamedTuple, Optional, Sequence

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
    local_max_rule: str = "all-neighbors",
) -> ForwardDecision:
    """Apply the MPIL routing rule at one node.

    Parameters
    ----------
    ranked:
        ``(self_score, ids_by_rank, tier_ends, tier_scores)`` — the current
        node's metric value against the object ID and its neighbors grouped
        into equal-score tiers, best first, in the layout of
        :func:`repro.core.metric.rank_by_score`
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
    local_max_rule:
        ``"all-neighbors"`` tests the local maximum against every neighbor
        (the pseudo-code's "all nodes in neighbor list"); ``"unvisited-only"``
        tests only against the unvisited candidates (ablation).
    """
    self_score, ids_by_rank, tier_ends, tier_scores = ranked
    # next_hop_list is the best tier that still has an unvisited member.  A
    # route holds the few nodes this copy visited, so that is nearly always
    # the first tier; the candidates keep the tier's stored order, which
    # fixes what ``draw`` picks.
    candidates: Sequence[int] = ()
    best_candidate_score: Optional[int] = None
    start = 0
    for end, score in zip(tier_ends, tier_scores):
        if end - start == 1:
            # the top tier is one neighbor in about two decisions of three:
            # test it where it lies, no slice and no list
            peer = ids_by_rank[start]
            if peer not in excluded:
                candidates = (peer,)
                best_candidate_score = score
                break
        else:
            candidates = [peer for peer in ids_by_rank[start:end] if peer not in excluded]
            if candidates:
                best_candidate_score = score
                break
        start = end

    if local_max_rule == "all-neighbors":
        reference = tier_scores[0] if tier_scores else None
    else:
        reference = best_candidate_score
    is_local_max = reference is None or self_score >= reference

    fanout, budgets, new_flows = fan_out(max_flows, given_flows, len(candidates))
    if fanout < len(candidates):
        if fanout == 0:
            candidates = ()
        elif tie_break == "random":
            candidates = draw(candidates, fanout)
        else:
            candidates = sorted(candidates)[:fanout]
    return ForwardDecision(is_local_max, tuple(candidates), budgets, new_flows)
