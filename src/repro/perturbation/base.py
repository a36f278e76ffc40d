"""The availability-process interface behind every perturbation scenario.

The paper's flapping model, the churn extension, and the scenario families
added on top of them (correlated regional outages, churn waves, join
storms, adversarial removal) all answer the same two questions:

- *point query*: is node ``i`` online at time ``t``?  This is the
  :class:`repro.sim.availability.AvailabilityModel` contract every timed
  driver consumes.
- *interval query*: during which maximal windows is node ``i`` offline?
  This is what makes processes **composable** (a
  :class:`~repro.perturbation.timeline.ScenarioTimeline` merges component
  windows) and **testable** (the property suite cross-checks every
  ``is_online`` answer against the reported intervals).

:class:`AvailabilityProcess` names that joint contract.  Implementations
must keep the two views consistent: for ``0 <= t < until``,
``is_online(node, t)`` is False iff ``t`` falls inside one of
``offline_intervals(node, until)``.

:class:`ProcessBase` holds the rest, once for every family: the
constructor (population size check, seed validation, the config, seed and
exemptions) and ``online_mask(t)``, the point query asked of every node.
A family writes its two queries and nothing else.

Interval semantics
------------------

``offline_intervals(node, until)`` returns every maximal half-open window
``[start, end)`` with ``start < until`` during which the node is offline,
in increasing order.  ``end`` may exceed ``until`` (the window is reported
whole) and may be ``math.inf`` for permanent removal.  Nodes listed in
``always_online`` report no windows.  Times before 0 are online by
convention (simulations start at 0).
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import validate_seed

Interval = tuple[float, float]


@runtime_checkable
class AvailabilityProcess(Protocol):
    """Protocol for composable, interval-reporting availability models."""

    num_nodes: int
    always_online: frozenset[int]

    def is_online(self, node: int, time: float) -> bool:
        """Ground-truth availability of ``node`` at ``time``."""
        ...  # pragma: no cover - protocol

    def offline_intervals(self, node: int, until: float) -> list[Interval]:
        """Maximal offline windows ``[start, end)`` with ``start < until``."""
        ...  # pragma: no cover - protocol


class ProcessBase:
    """What every availability process shares: its population, its seed,
    its exemptions, and the bulk view of its point query.

    A family subclasses this and writes only its point query
    (``is_online``) and its interval query (``offline_intervals``).
    """

    def __init__(
        self,
        config,
        num_nodes: int,
        seed: int | tuple,
        always_online: frozenset[int] | set[int],
    ):
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        validate_seed(seed)
        self.config = config
        self.num_nodes = num_nodes
        self.seed = seed
        self.always_online = frozenset(always_online)

    def is_online(self, node: int, time: float) -> bool:  # pragma: no cover
        raise NotImplementedError

    def online_mask(self, time: float) -> np.ndarray:
        """Availability of *every* node at ``time`` as one boolean bitmap:
        ``is_online(node, time)`` of nodes ``0..num_nodes-1``, one point
        query a node.  No driver reads it; the benchmark's per-layer probes
        time it."""
        return np.fromiter(
            (self.is_online(node, time) for node in range(self.num_nodes)),
            bool,
            self.num_nodes,
        )


def merge_intervals(intervals: Sequence[Interval]) -> list[Interval]:
    """Merge overlapping or touching half-open intervals into maximal ones.

    >>> merge_intervals([(3.0, 5.0), (0.0, 1.0), (1.0, 2.0), (4.0, 6.0)])
    [(0.0, 2.0), (3.0, 6.0)]
    """
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]
