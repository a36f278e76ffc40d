"""Tests for the flow-budget (paths-limiting) algorithm of Section 4.3."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.flows import allowed_fanout, fan_out, flows_consumed, split_flow_budget
from repro.errors import RoutingError


class TestAllowedFanout:
    def test_originator_consumes_budget_on_single_send(self):
        # Figure 6: origin with max_flows=2 may fan out to at most 2.
        assert allowed_fanout(2, 0, 5) == 2

    def test_relay_keeps_one_flow_alive_at_zero_budget(self):
        assert allowed_fanout(0, 1, 5) == 1

    def test_candidate_limited(self):
        assert allowed_fanout(10, 1, 3) == 3

    def test_zero_candidates(self):
        assert allowed_fanout(10, 1, 0) == 0

    @pytest.mark.parametrize("max_flows,given,candidates", [(-1, 0, 1), (1, 2, 1), (1, 0, -1)])
    def test_invalid_inputs(self, max_flows, given, candidates):
        with pytest.raises(RoutingError):
            allowed_fanout(max_flows, given, candidates)


class TestSplitFlowBudget:
    def test_figure6_origin(self):
        """'After node 0001, max_flows becomes 1.'"""
        assert split_flow_budget(2, 0, 1) == [1]

    def test_figure6_relay_split(self):
        """Node 1110 splits max_flows=1 into two zero-budget children."""
        assert split_flow_budget(1, 1, 2) == [0, 0]

    def test_round_robin_residue(self):
        assert split_flow_budget(7, 1, 3) == [2, 2, 1]  # remainder 5 -> 2,2,1
        assert split_flow_budget(8, 1, 3) == [2, 2, 2]  # remainder 6 -> even
        assert split_flow_budget(9, 1, 4) == [2, 2, 1, 1]  # remainder 6

    def test_single_relay_forward_preserves_budget(self):
        assert split_flow_budget(5, 1, 1) == [5]

    def test_fanout_beyond_allowance_rejected(self):
        with pytest.raises(RoutingError):
            split_flow_budget(2, 0, 3)
        with pytest.raises(RoutingError):
            split_flow_budget(0, 0, 1)

    def test_zero_fanout_rejected(self):
        with pytest.raises(RoutingError):
            split_flow_budget(3, 1, 0)


class TestFlowsConsumed:
    def test_originator_counts_every_send(self):
        assert flows_consumed(0, 1) == 1
        assert flows_consumed(0, 3) == 3

    def test_relay_counts_additional_only(self):
        assert flows_consumed(1, 1) == 0
        assert flows_consumed(1, 3) == 2

    def test_no_sends(self):
        assert flows_consumed(0, 0) == 0
        assert flows_consumed(1, 0) == 0


@given(
    max_flows=st.integers(0, 50),
    given=st.integers(0, 1),
    candidates=st.integers(0, 60),
)
def test_budget_conservation(max_flows, given, candidates):
    """Children's budgets plus flows consumed account exactly for the
    parent's budget: sum(child budgets) = max_flows - (fanout - given)."""
    fanout = allowed_fanout(max_flows, given, candidates)
    if fanout == 0:
        return
    budgets = split_flow_budget(max_flows, given, fanout)
    assert len(budgets) == fanout
    assert all(b >= 0 for b in budgets)
    assert sum(budgets) == max_flows - (fanout - given)
    # round-robin residue means budgets differ by at most one
    assert max(budgets) - min(budgets) <= 1


@given(max_flows=st.integers(1, 20), st_depth=st.integers(1, 6), data=st.data())
def test_recursive_splitting_never_exceeds_total_budget(max_flows, st_depth, data):
    """Simulate arbitrary nested splits; the total number of flows created
    can never exceed the originator's max_flows (the paper's bound)."""
    total_flows = 0
    frontier = [(max_flows, 0)]
    for _ in range(st_depth):
        next_frontier = []
        for budget, given in frontier:
            candidates = data.draw(st.integers(0, 8))
            fanout = allowed_fanout(budget, given, candidates)
            if fanout == 0:
                continue
            total_flows += flows_consumed(given, fanout)
            for child_budget in split_flow_budget(budget, given, fanout):
                next_frontier.append((child_budget, 1))
        frontier = next_frontier
    assert total_flows <= max_flows


class TestFanOut:
    """The one call ``decide_forwarding`` makes is the three steps above."""

    @given(
        max_flows=st.integers(0, 50),
        given=st.integers(0, 1),
        candidates=st.integers(0, 60),
    )
    def test_equals_the_three_steps(self, max_flows, given, candidates):
        fanout = allowed_fanout(max_flows, given, candidates)
        budgets = tuple(split_flow_budget(max_flows, given, fanout)) if fanout else ()
        assert fan_out(max_flows, given, candidates) == (
            fanout,
            budgets,
            flows_consumed(given, fanout),
        )

    @pytest.mark.parametrize(
        "max_flows,given,candidates", [(1, 2, 1), (1, -1, 1), (-1, 0, 1), (-1, 1, 3), (1, 0, -1)]
    )
    def test_rejects_what_allowed_fanout_rejects(self, max_flows, given, candidates):
        with pytest.raises(RoutingError) as expected:
            allowed_fanout(max_flows, given, candidates)
        with pytest.raises(RoutingError) as raised:
            fan_out(max_flows, given, candidates)
        assert str(raised.value) == str(expected.value)
