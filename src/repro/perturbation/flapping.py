"""The flapping availability schedule.

Semantics (paper Section 3):

- each node picks a random phase — "its very first beginning of the
  flapping period (i.e. idle period + offline period)" — uniform in
  ``[0, cycle)``; before its phase the node is online;
- each cycle consists of an idle (online) part of ``idle_period`` seconds
  followed by an offline part of ``offline_period`` seconds;
- at the beginning of the offline part of each cycle, the node goes offline
  with probability ``probability`` (a fresh Bernoulli draw per cycle),
  otherwise it stays online through that cycle's offline part.

The schedule is *deterministic given the seed*: per-cycle decisions are
generated lazily from a per-node stream — itself derived on first use, when
a cycle of that node first has to be drawn — so ``is_online(node, t)`` can
be queried in any order and still agree with an event-driven replay.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np

from repro.errors import ConfigurationError
from repro.perturbation.base import ProcessBase
from repro.sim.rng import derive_rng, validate_seed


@dataclasses.dataclass(frozen=True)
class FlappingConfig:
    """Idle/offline periods (seconds) and the flapping probability."""

    idle_period: float
    offline_period: float
    probability: float

    def __post_init__(self) -> None:
        for name in ("idle_period", "offline_period"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"flapping {name} must be finite, got {value!r}")
        if self.idle_period <= 0 or self.offline_period <= 0:
            raise ConfigurationError(
                f"idle and offline periods must be positive, got "
                f"{self.idle_period}:{self.offline_period}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"flapping probability must be in [0, 1], got {self.probability}"
            )

    @property
    def cycle(self) -> float:
        """One flapping period: idle + offline."""
        return self.idle_period + self.offline_period

    @property
    def label(self) -> str:
        """The paper's idle:offline notation, e.g. ``"30:30"``."""

        def fmt(x: float) -> str:
            return str(int(x)) if float(x).is_integer() else str(x)

        return f"{fmt(self.idle_period)}:{fmt(self.offline_period)}"

    @classmethod
    def from_label(cls, label: str, probability: float) -> "FlappingConfig":
        """Parse the paper's ``"idle:offline"`` notation.

        >>> FlappingConfig.from_label("45:15", 0.5).cycle
        60.0
        """
        try:
            idle_text, offline_text = label.split(":")
            idle, offline = float(idle_text), float(offline_text)
        except ValueError:
            raise ConfigurationError(
                f"flapping label must look like '30:30', got {label!r}"
            ) from None
        return cls(idle_period=idle, offline_period=offline, probability=probability)

    @property
    def expected_offline_fraction(self) -> float:
        """Long-run fraction of time a node spends offline."""
        return self.probability * self.offline_period / self.cycle


class FlappingSchedule(ProcessBase):
    """Deterministic per-node availability under the flapping model.

    Parameters
    ----------
    config:
        The flapping parameters.
    num_nodes:
        Number of nodes covered by the schedule.
    seed:
        Root seed; phases and per-cycle decisions derive from it.
    always_online:
        Node indices exempted from flapping (e.g. the querying client in the
        paper's lookup experiments).
    """

    def __init__(
        self,
        config: FlappingConfig,
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
        #: the config's label, formatted once: every "flap-decisions" derive
        #: reads it
        self._label = config.label
        phase_rng = derive_rng(seed, "flap-phases", num_nodes, self._label)
        self._phases = [phase_rng.uniform(0.0, config.cycle) for _ in range(num_nodes)]
        #: node -> its "flap-decisions" stream, derived on the first draw
        self._decision_rngs: dict[int, random.Random] = {}
        self._decisions: list[list[bool]] = [[] for _ in range(num_nodes)]
        # hot-path copies of the config scalars: ``is_online`` is called for
        # every hop of every perturbed lookup, where the attribute hops
        # through the frozen dataclass add up
        self._cycle = config.cycle
        self._idle = config.idle_period
        self._probability = config.probability
        self._phases_array = np.asarray(self._phases, dtype=np.float64)

    def phase(self, node: int) -> float:
        """Time at which ``node`` first enters its flapping period."""
        return self._phases[node]

    def goes_offline(self, node: int, cycle_index: int) -> bool:
        """The Bernoulli decision for a node's given cycle (lazily drawn)."""
        if cycle_index < 0:
            return False
        decisions = self._decisions[node]
        if len(decisions) <= cycle_index:
            rng = self._decision_rngs.get(node)
            if rng is None:
                rng = self._decision_rngs[node] = derive_rng(
                    self.seed, "flap-decisions", node, self._label
                )
            p = self.config.probability
            while len(decisions) <= cycle_index:
                decisions.append(rng.random() < p)
        return decisions[cycle_index]

    def is_online(self, node: int, time: float) -> bool:
        """Ground-truth availability of ``node`` at ``time``."""
        if node in self.always_online:
            return True
        if self._probability == 0.0:
            return True
        offset = time - self._phases[node]
        if offset < 0:
            return True  # before the node's first flapping period
        cycle = self._cycle
        cycle_index = int(offset / cycle)  # floor: offset is non-negative
        if offset - cycle_index * cycle < self._idle:
            return True
        decisions = self._decisions[node]
        if cycle_index < len(decisions):
            return not decisions[cycle_index]
        return not self.goes_offline(node, cycle_index)

    def online_mask(self, time: float) -> np.ndarray:
        """Bulk bitmap: the cycle arithmetic runs vectorised over all
        phases; only nodes inside an offline part need their (lazily drawn,
        per-node-stream) Bernoulli decision, so the Python work per refresh
        is proportional to the flapping fraction, not the population."""
        mask = np.ones(self.num_nodes, dtype=bool)
        if self._probability != 0.0:
            offset = time - self._phases_array
            cycle_indices = (offset / self._cycle).astype(np.int64)
            in_offline_part = (offset >= 0) & (
                offset - cycle_indices * self._cycle >= self._idle
            )
            for node in np.nonzero(in_offline_part)[0].tolist():
                mask[node] = not self.goes_offline(node, int(cycle_indices[node]))
        if self.always_online:
            mask[list(self.always_online)] = True
        return mask

    def offline_intervals(self, node: int, until: float) -> list[tuple[float, float]]:
        """Maximal offline windows ``[start, end)`` with ``start < until``.

        Cycle ``k`` contributes ``[phase + k*cycle + idle, phase +
        (k+1)*cycle)`` iff its Bernoulli draw took the node offline.  See
        :mod:`repro.perturbation.base` for the interval contract.
        """
        if node in self.always_online or self.config.probability == 0.0:
            return []
        phase = self._phases[node]
        cycle = self.config.cycle
        idle = self.config.idle_period
        intervals: list[tuple[float, float]] = []
        k = 0
        while phase + k * cycle + idle < until:
            if self.goes_offline(node, k):
                intervals.append(
                    (phase + k * cycle + idle, phase + (k + 1) * cycle)
                )
            k += 1
        return intervals
