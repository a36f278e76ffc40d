"""Join storms: mass simultaneous arrivals.

Flash crowds and post-outage restarts produce the inverse of an outage: a
large fraction of the population *arrives at once*.  For a maintained
overlay this is the expensive direction — every arrival must re-join
through live contacts (see :mod:`repro.pastry.rejoin`), so a storm of
simultaneous rejoins through an already-perturbed network thrashes; for
MPIL the arrivals simply start answering.  For replica placement the storm
stresses insertion: objects inserted before the storm may have replicas
parked on not-yet-arrived nodes, unreachable until the wave lands.

:class:`JoinStormSchedule` models a ``late_fraction`` of the population as
absent (offline) from time 0 until the storm hits at ``arrival_time``,
when all of them arrive at once.  Compose it with a background flapping or
churn process via :class:`~repro.perturbation.timeline.ScenarioTimeline`
to measure recovery under adverse conditions.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.perturbation.base import ProcessBase
from repro.sim.rng import derive_rng, validate_seed


@dataclasses.dataclass(frozen=True)
class JoinStormConfig:
    """One mass-arrival event.

    Parameters
    ----------
    arrival_time:
        When the storm lands (seconds; must be positive so there *is* a
        pre-storm regime).
    late_fraction:
        Fraction of eligible nodes that are absent until the storm.
    """

    arrival_time: float
    late_fraction: float

    def __post_init__(self) -> None:
        if self.arrival_time <= 0:
            raise ConfigurationError(
                f"storm arrival_time must be positive, got {self.arrival_time}"
            )
        if not 0.0 <= self.late_fraction <= 1.0:
            raise ConfigurationError(
                f"storm late_fraction must be in [0, 1], got {self.late_fraction}"
            )

    @property
    def label(self) -> str:
        return f"join-storm({self.late_fraction:.0%} arrive @ {self.arrival_time:g}s)"


class JoinStormSchedule(ProcessBase):
    """Availability process: late joiners are absent until the storm."""

    def __init__(
        self,
        config: JoinStormConfig,
        num_nodes: int,
        seed: int | tuple = 0,
        always_online: frozenset[int] | set[int] = frozenset(),
    ):
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        validate_seed(seed)
        self.config = config
        self.num_nodes = num_nodes
        self.seed = seed
        self.always_online = frozenset(always_online)
        eligible = [n for n in range(num_nodes) if n not in self.always_online]
        count = round(config.late_fraction * len(eligible))
        pick_rng = derive_rng(seed, "join-storm-members", num_nodes, config.label)
        late = sorted(pick_rng.sample(eligible, count)) if count else []
        self._arrival: dict[int, float] = dict.fromkeys(late, config.arrival_time)
        self._late_array = np.fromiter(
            self._arrival, dtype=np.int64, count=len(self._arrival)
        )
        self._arrival_array = np.fromiter(
            self._arrival.values(), dtype=np.float64, count=len(self._arrival)
        )

    @property
    def late_joiners(self) -> frozenset[int]:
        """Nodes absent before the storm."""
        return frozenset(self._arrival)

    def arrival(self, node: int) -> float:
        """When ``node`` becomes available (0.0 for early nodes)."""
        return self._arrival.get(node, 0.0)

    def is_online(self, node: int, time: float) -> bool:
        """Early nodes are always up; late joiners appear at their arrival."""
        arrival = self._arrival.get(node)
        if arrival is None or time < 0:
            return True
        return time >= arrival

    def online_mask(self, time: float) -> np.ndarray:
        """Bulk bitmap: one scatter of the not-yet-arrived late joiners."""
        mask = np.ones(self.num_nodes, dtype=bool)
        if time >= 0:
            mask[self._late_array[self._arrival_array > time]] = False
        return mask

    def offline_intervals(self, node: int, until: float) -> list[tuple[float, float]]:
        """One absence window ``[0, arrival)`` for each late joiner."""
        arrival = self._arrival.get(node)
        if arrival is None or until <= 0:
            return []
        return [(0.0, arrival)]
