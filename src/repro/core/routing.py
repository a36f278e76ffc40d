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

import random
from typing import AbstractSet, NamedTuple, Optional

from repro.core.flows import allowed_fanout, flows_consumed, split_flow_budget
from repro.core.metric import RankedNeighbors


class ForwardDecision(NamedTuple):
    """Outcome of one node's handling of one message copy."""

    is_local_max: bool
    next_hops: tuple[int, ...]
    budgets: tuple[int, ...]
    new_flows: int


def decide_forwarding(
    ranked: RankedNeighbors,
    excluded: AbstractSet[int],
    max_flows: int,
    given_flows: int,
    rng: random.Random,
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
        in neighbor_list, excluding the nodes in M.route and N").
    max_flows / given_flows:
        Flow-budget state of the message copy being processed.
    tie_break:
        ``"random"`` samples which equal-metric candidates are used when
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
    # fixes what ``rng.sample`` draws.
    candidates: list[int] = []
    best_candidate_score: Optional[int] = None
    start = 0
    for end, score in zip(tier_ends, tier_scores):
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

    fanout = allowed_fanout(max_flows, given_flows, len(candidates))
    if fanout == 0:
        return ForwardDecision(is_local_max, (), (), 0)
    if fanout < len(candidates):
        if tie_break == "random":
            candidates = rng.sample(candidates, fanout)
        else:
            candidates = sorted(candidates)[:fanout]
    return ForwardDecision(
        is_local_max,
        tuple(candidates),
        tuple(split_flow_budget(max_flows, given_flows, fanout)),
        flows_consumed(given_flows, fanout),
    )
