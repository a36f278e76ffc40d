"""The flow-budget ("paths-limiting") algorithm of Section 4.3.

When a node holding a message with budget ``max_flows`` forwards it to
``m`` equal-metric candidates, the algorithm:

1. computes ``m = min(len(candidates), max_flows + given_flows)``, where
   ``given_flows`` is 0 at the originator and 1 elsewhere (forwarding to
   exactly one node is not an *additional* flow — except at the originator,
   whose first send starts the first flow and therefore consumes budget);
2. decreases the pooled budget by the ``m - given_flows`` flows consumed;
3. divides the remainder among the ``m`` children, distributing any residue
   one by one in round-robin fashion.

The three small pure functions below are that algorithm step by step, and
are property-tested for the conservation invariant: the total number of
flows a request can ever create is bounded by the originator's
``max_flows``.  :func:`fan_out` is all three in one validated call — what
:func:`repro.core.routing.decide_forwarding` pays once per message copy —
and is property-tested against them.
"""

from __future__ import annotations

from repro.errors import RoutingError


def allowed_fanout(max_flows: int, given_flows: int, num_candidates: int) -> int:
    """Number of candidates the message may actually be forwarded to.

    >>> allowed_fanout(2, 0, 5)   # originator with budget 2
    2
    >>> allowed_fanout(0, 1, 5)   # exhausted budget still sustains one flow
    1
    >>> allowed_fanout(3, 1, 2)   # fewer candidates than budget
    2
    """
    if given_flows not in (0, 1):
        raise RoutingError(f"given_flows must be 0 or 1, got {given_flows}")
    if max_flows < 0:
        raise RoutingError(f"max_flows must be non-negative, got {max_flows}")
    if num_candidates < 0:
        raise RoutingError(f"num_candidates must be non-negative, got {num_candidates}")
    return min(num_candidates, max_flows + given_flows)


def split_flow_budget(max_flows: int, given_flows: int, fanout: int) -> list[int]:
    """Budgets carried by each of the ``fanout`` child messages.

    Implements step 5 of Section 4.3: each child receives
    ``(max_flows - m + given_flows) / m``, with the residue distributed one
    by one in round-robin fashion.

    >>> split_flow_budget(2, 0, 1)   # Figure 6: "After node 0001, max_flows becomes 1"
    [1]
    >>> split_flow_budget(1, 1, 2)   # Figure 6: node 1110 splits to two children
    [0, 0]
    >>> split_flow_budget(7, 1, 3)
    [2, 2, 1]
    """
    if fanout <= 0:
        raise RoutingError(f"fanout must be positive, got {fanout}")
    if fanout > max_flows + given_flows:
        raise RoutingError(
            f"fanout {fanout} exceeds allowance max_flows({max_flows}) + "
            f"given_flows({given_flows})"
        )
    remainder = max_flows - fanout + given_flows
    base, residue = divmod(remainder, fanout)
    return [base + 1 if i < residue else base for i in range(fanout)]


def flows_consumed(given_flows: int, fanout: int) -> int:
    """Number of *new* flows created by forwarding to ``fanout`` nodes.

    At the originator (``given_flows == 0``) every send starts a flow; at
    any other node the first send continues the incoming flow and only the
    remaining ``fanout - 1`` are new.
    """
    if fanout <= 0:
        return 0
    return fanout - given_flows if given_flows else fanout


def fan_out(
    max_flows: int, given_flows: int, num_candidates: int
) -> tuple[int, tuple[int, ...], int]:
    """``(fanout, budgets, new_flows)`` of one forwarding decision:
    :func:`allowed_fanout`, then :func:`split_flow_budget` and
    :func:`flows_consumed` at that fan-out, with the arguments checked once.

    >>> fan_out(2, 0, 1)   # the originator's single send starts a flow
    (1, (1,), 1)
    >>> fan_out(7, 1, 3)
    (3, (2, 2, 1), 2)
    >>> fan_out(0, 0, 4)   # nothing to spend, nothing sent
    (0, (), 0)
    """
    if given_flows not in (0, 1):
        raise RoutingError(f"given_flows must be 0 or 1, got {given_flows}")
    if max_flows < 0:
        raise RoutingError(f"max_flows must be non-negative, got {max_flows}")
    if num_candidates < 0:
        raise RoutingError(f"num_candidates must be non-negative, got {num_candidates}")
    allowance = max_flows + given_flows
    fanout = num_candidates if num_candidates < allowance else allowance
    if fanout == 1:
        # four decisions in five: one next hop inherits the whole remainder
        return 1, (allowance - 1,), 1 - given_flows
    if fanout == 0:
        return 0, (), 0
    base, residue = divmod(allowance - fanout, fanout)
    return fanout, (base + 1,) * residue + (base,) * (fanout - residue), fanout - given_flows
