"""Continuous-time churn availability (extension beyond the paper's model).

The paper models perturbation as synchronized flapping cycles and notes
that "longer-term perturbation ... can be caused by user churn, i.e. rapid
node departures and arrivals of users".  The availability studies it cites
(Bhagwan et al. on Overnet; Saroiu et al. on Napster/Gnutella) measure
*renewal-process* behaviour: sessions and downtimes of random, per-node
durations.  ``ChurnSchedule`` models exactly that — each node alternates
online sessions and offline periods with independent exponential durations
— behind the same :class:`~repro.sim.availability.AvailabilityModel`
interface, so every driver in the library runs unmodified under churn.

Determinism: per-node interval boundaries are generated lazily from named
RNG streams, so ``is_online(node, t)`` is a pure function of
``(seed, node, t)`` regardless of query order.
"""

from __future__ import annotations

import bisect
import dataclasses

from repro.errors import ConfigurationError
from repro.perturbation.base import ProcessBase
from repro.sim.rng import derive_rng


@dataclasses.dataclass(frozen=True)
class ChurnConfig:
    """Exponential session/downtime churn parameters (seconds)."""

    mean_session: float
    mean_downtime: float

    def __post_init__(self) -> None:
        if self.mean_session <= 0 or self.mean_downtime <= 0:
            raise ConfigurationError(
                f"mean_session and mean_downtime must be positive, got "
                f"{self.mean_session}/{self.mean_downtime}"
            )

    @property
    def expected_offline_fraction(self) -> float:
        """Long-run fraction of time a node is offline."""
        return self.mean_downtime / (self.mean_session + self.mean_downtime)

    @property
    def label(self) -> str:
        return f"churn({self.mean_session:g}s up / {self.mean_downtime:g}s down)"


class ChurnSchedule(ProcessBase):
    """Per-node alternating exponential on/off renewal process.

    Subclasses may override :meth:`_interval_mean` to make the rates
    time-varying (see :class:`repro.perturbation.waves.ChurnWaveSchedule`);
    the boundary/interval machinery is shared.
    """

    def __init__(
        self,
        config: ChurnConfig,
        num_nodes: int,
        seed: int | tuple = 0,
        always_online: frozenset[int] | set[int] = frozenset(),
    ):
        super().__init__(config, num_nodes, seed, always_online)
        self._rngs = [
            derive_rng(seed, "churn", node, config.mean_session, config.mean_downtime)
            for node in range(num_nodes)
        ]
        # boundaries[node][i] is the time of the i-th state flip; nodes start
        # online at t=0 (even interval index = online).
        self._boundaries: list[list[float]] = [[] for _ in range(num_nodes)]

    def _interval_mean(self, online: bool, start: float) -> float:
        """Mean duration of the interval beginning at ``start`` (``online``
        says which state the node is in during it).  Hook for time-varying
        subclasses; the base process is stationary."""
        return self.config.mean_session if online else self.config.mean_downtime

    def _extend(self, node: int, until: float) -> None:
        boundaries = self._boundaries[node]
        rng = self._rngs[node]
        while not boundaries or boundaries[-1] <= until:
            last = boundaries[-1] if boundaries else 0.0
            online = len(boundaries) % 2 == 0  # state during the next interval
            mean = self._interval_mean(online, last)
            boundaries.append(last + rng.expovariate(1.0 / mean))

    def is_online(self, node: int, time: float) -> bool:
        """Ground-truth availability under churn."""
        if node in self.always_online:
            return True
        if time < 0:
            return True
        self._extend(node, time)
        index = bisect.bisect_right(self._boundaries[node], time)
        return index % 2 == 0

    def session_boundaries(self, node: int, until: float) -> list[float]:
        """State-flip times of ``node`` up to ``until`` (diagnostics)."""
        self._extend(node, until)
        return [b for b in self._boundaries[node] if b <= until]

    def offline_intervals(self, node: int, until: float) -> list[tuple[float, float]]:
        """Maximal offline windows ``[start, end)`` with ``start < until``.

        The node starts online, so windows are the odd-numbered intervals
        between state flips: ``[b[0], b[1])``, ``[b[2], b[3])``, ...  See
        :mod:`repro.perturbation.base` for the interval contract.
        """
        if node in self.always_online:
            return []
        self._extend(node, until)
        boundaries = self._boundaries[node]
        intervals: list[tuple[float, float]] = []
        for i in range(0, len(boundaries) - 1, 2):
            if boundaries[i] >= until:
                break
            intervals.append((boundaries[i], boundaries[i + 1]))
        return intervals
