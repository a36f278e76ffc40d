"""Tests for the pure MPIL forwarding decision (Figure 5)."""

from __future__ import annotations

import random

import pytest

from repro.core.metric import compact_ranking
from repro.core.routing import ForwardDecision, decide_forwarding


def _decide(
    self_score,
    ids,
    scores,
    excluded=(),
    max_flows=10,
    given=0,
    tie="lowest-id",
    seed=0,
):
    """The decision with the exclusion given as a set and — the form
    ``MPILRequest.step`` passes, the route itself — as a tuple; only
    membership is asked of it, so the two must agree."""
    ranked = compact_ranking(self_score, tuple(ids), scores)
    decisions = [
        decide_forwarding(
            ranked,
            excluded=container(excluded),
            max_flows=max_flows,
            given_flows=given,
            draw=random.Random(seed).sample,
            tie_break=tie,
        )
        for container in (set, tuple)
    ]
    assert decisions[0] == decisions[1]
    return decisions[0]


class TestCandidateSelection:
    def test_forwards_to_single_best(self):
        decision = _decide(1, [10, 11, 12], [3, 1, 2])
        assert decision.next_hops == (10,)
        assert not decision.is_local_max  # the chosen hop scores 3 > self 1

    def test_ties_create_multiple_next_hops(self):
        decision = _decide(1, [10, 11, 12], [3, 3, 2])
        assert set(decision.next_hops) == {10, 11}

    def test_route_exclusion(self):
        decision = _decide(1, [10, 11, 12], [3, 1, 2], excluded={10})
        assert decision.next_hops == (12,)

    def test_all_excluded_means_no_forwarding(self):
        decision = _decide(1, [10, 11], [3, 1], excluded={10, 11})
        assert decision.next_hops == ()
        assert decision.budgets == ()
        assert decision.new_flows == 0

    def test_all_excluded_leaves_no_candidate_to_compare_with(self):
        # nothing unvisited, but the local-maximum test still sees the
        # visited 3 above self
        assert not _decide(1, [10, 11], [3, 1], excluded={10, 11}).is_local_max

    def test_excluded_top_tiers_fall_through_to_the_next(self):
        decision = _decide(1, [10, 11, 12, 13], [5, 5, 4, 2], excluded={10, 11, 12})
        assert decision.next_hops == (13,)
        assert not decision.is_local_max

    def test_downhill_forwarding_continues(self):
        """Continuous forwarding: the best candidate is used even when its
        score is below the current node's (Section 4.2)."""
        decision = _decide(4, [10, 11], [2, 1])
        assert decision.next_hops == (10,)
        assert decision.is_local_max  # and the node is a local maximum


class TestLocalMaximum:
    def test_strictly_higher_neighbor_blocks_local_max(self):
        assert not _decide(2, [10], [3]).is_local_max

    def test_tie_with_neighbor_is_still_local_max(self):
        """'none of its neighbor nodes have a HIGHER value' — ties count."""
        assert _decide(3, [10], [3]).is_local_max

    def test_all_neighbors_rule_sees_visited_neighbors(self):
        # Visited neighbor has score 5 > self 4: not a local max under the
        # paper's rule even though it is excluded from forwarding.
        decision = _decide(4, [10, 11], [5, 1], excluded={10})
        assert not decision.is_local_max
        assert decision.next_hops == (11,)

    def test_isolated_node_is_local_max(self):
        decision = _decide(0, [], [], max_flows=5)
        assert decision.is_local_max
        assert decision.next_hops == ()


class TestBudgets:
    def test_origin_single_send_decrements(self):
        decision = _decide(1, [10], [3], max_flows=2, given=0)
        assert decision.budgets == (1,)
        assert decision.new_flows == 1

    def test_relay_single_send_preserves(self):
        decision = _decide(1, [10], [3], max_flows=2, given=1)
        assert decision.budgets == (2,)
        assert decision.new_flows == 0

    def test_split_divides_budget(self):
        decision = _decide(1, [10, 11], [3, 3], max_flows=7, given=1)
        assert sorted(decision.budgets, reverse=True) == [3, 3]
        assert decision.new_flows == 1

    def test_fanout_capped_by_budget(self):
        decision = _decide(1, [10, 11, 12, 13], [3, 3, 3, 3], max_flows=1, given=1)
        assert len(decision.next_hops) == 2  # min(4 candidates, 1 + 1)
        assert decision.budgets == (0, 0)

    def test_zero_budget_relay_keeps_one_path(self):
        decision = _decide(1, [10, 11], [3, 3], max_flows=0, given=1)
        assert len(decision.next_hops) == 1
        assert decision.budgets == (0,)
        assert decision.new_flows == 0


class TestTieBreaking:
    def test_lowest_id_deterministic(self):
        decision = _decide(
            1, [12, 10, 11], [3, 3, 3], max_flows=1, given=1, tie="lowest-id"
        )
        assert decision.next_hops == (10, 11)

    def test_random_tie_break_uses_rng(self):
        picks = set()
        for seed in range(12):
            decision = _decide(
                1, [10, 11, 12], [3, 3, 3], max_flows=0, given=1, tie="random", seed=seed
            )
            picks.add(decision.next_hops)
        assert len(picks) > 1  # different seeds pick different subsets

    def test_no_sampling_needed_when_budget_covers_all(self):
        decision = _decide(1, [12, 10], [3, 3], max_flows=9, given=1, tie="random")
        assert set(decision.next_hops) == {10, 12}


def test_decision_is_frozen():
    decision = _decide(1, [10], [2])
    assert isinstance(decision, ForwardDecision)
    assert decision == (False, (10,), (9,), 1)
    with pytest.raises(AttributeError):
        decision.next_hops = ()
