"""Scenario composition: several availability processes, one schedule.

Real perturbation is rarely a single clean process — the interesting
question is what a regional outage does to a network that was *already*
flapping, or how a join storm lands during a churn wave.
:class:`ScenarioTimeline` composes any number of
:class:`~repro.perturbation.base.AvailabilityProcess` components into one:
a node is online iff it is online under **every** component (each
component models one reason to be *offline*, so composition intersects the
online sets and unions the offline windows).

The timeline is itself an ``AvailabilityProcess``, so it plugs into every
timed driver, view oracle, and rejoin model unchanged — and timelines nest.

Example::

    flapping = FlappingSchedule(FlappingConfig(30, 30, 0.5), n, seed=s)
    outage = RegionalOutage(regions, RegionalOutageConfig(600, 300, 0.5), seed=s)
    schedule = ScenarioTimeline([flapping, outage])
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.perturbation.base import (
    AvailabilityProcess,
    ProcessBase,
    merge_intervals,
    point_query_mask,
)


class ScenarioTimeline(ProcessBase):
    """Conjunction of availability processes over one node population."""

    def __init__(self, processes: Sequence[AvailabilityProcess]):
        self.processes = tuple(processes)
        if not self.processes:
            raise ConfigurationError("ScenarioTimeline needs at least one process")
        sizes = {p.num_nodes for p in self.processes}
        if len(sizes) != 1:
            raise ConfigurationError(
                f"composed processes disagree on num_nodes: {sorted(sizes)}"
            )
        self.num_nodes = self.processes[0].num_nodes
        # Online under the timeline requires online under every component,
        # so only nodes exempt in ALL components are unconditionally online.
        self.always_online = frozenset.intersection(
            *(frozenset(p.always_online) for p in self.processes)
        )

    def online_mask(self, time: float) -> np.ndarray:
        """Bulk bitmap: AND of the component bitmaps.  A component that
        implements only the :class:`AvailabilityProcess` protocol is read
        node by node (:func:`~repro.perturbation.base.point_query_mask`)."""
        mask = np.ones(self.num_nodes, dtype=bool)
        for process in self.processes:
            bulk = getattr(process, "online_mask", None)
            mask &= bulk(time) if bulk else point_query_mask(process.is_online, len(mask), time)
        return mask

    def is_online(self, node: int, time: float) -> bool:
        """Online iff online under every composed process."""
        for process in self.processes:
            if not process.is_online(node, time):
                return False
        return True

    def offline_intervals(self, node: int, until: float) -> list[tuple[float, float]]:
        """Union of the components' offline windows, merged maximal."""
        windows: list[tuple[float, float]] = []
        for process in self.processes:
            windows.extend(process.offline_intervals(node, until))
        return merge_intervals(windows)

    def __repr__(self) -> str:
        inner = ", ".join(type(p).__name__ for p in self.processes)
        return f"ScenarioTimeline([{inner}], n={self.num_nodes})"

