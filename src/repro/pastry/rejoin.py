"""Declared-failure eviction and rejoin (MSPastry recovery semantics).

MSPastry declares a node failed once it misses consecutive probe rounds,
removes it from routing state, and requires a *rejoin* when it recovers —
the rejoin routes a join message through live contacts to rebuild leaf sets
(Castro et al., DSN 2004).  Under flapping this matters only when the
offline period exceeds the failure-detection horizon: a node that vanishes
for several probe rounds is evicted, and on recovery it is effectively
absent until its rejoin completes.  Rejoin attempts are retried each probe
period and succeed only when the (hash-chosen) bootstrap contacts are all
online — each attempt's contact stream is derived on first use, when a
query at or after that attempt's time first needs its outcome — and
through a heavily perturbed network, rejoins thrash, which is what
collapses the paper's 300:300 curve at high flapping probability while
leaving 1:1 / 30:30 / 45:15 (whose offline windows are shorter than the
detection horizon) untouched.

``RejoinAdjustedAvailability`` wraps the ground-truth flapping schedule and
is a drop-in :class:`~repro.sim.availability.AvailabilityModel` for the
*Pastry-layer* protocol and its probed views.  MPIL-over-Pastry runs no
maintenance, never declares failures, and therefore keeps using the raw
schedule (a returning node simply answers again).

``IntervalRejoinAvailability`` generalizes the same eviction + rejoin
semantics to *any* :class:`~repro.perturbation.base.AvailabilityProcess`
that reports its offline windows — join storms, regional outages, and
composed :class:`~repro.perturbation.timeline.ScenarioTimeline` scenarios —
by reading completed offline episodes from ``offline_intervals`` instead of
flapping cycle indices.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional

from repro.pastry.config import PastryConfig
from repro.perturbation.flapping import FlappingSchedule
from repro.sim.rng import derive_rng, validate_seed


def detection_horizon(config: PastryConfig) -> float:
    """Offline time after which a node is declared failed and evicted:
    ``failure_eviction_rounds`` missed leafset probe rounds plus the
    timeout tail of the last probe attempt."""
    return (
        config.failure_eviction_rounds * config.leafset_probe_period
        + (config.probe_retries + 1) * config.probe_timeout
    )


class _RejoinModel:
    """What both rejoin models share: the parameters and the one attempt
    loop, evaluated only as far as a query needs it."""

    def __init__(self, config: PastryConfig, seed: object, join_contacts: int, max_attempts: int):
        validate_seed(seed)
        self.pastry_config = config
        self.seed = seed
        self.join_contacts = join_contacts
        self.max_attempts = max_attempts
        self.eviction_threshold = detection_horizon(config)
        #: (node, episode key) -> (attempts evaluated, completion or None)
        self._rejoin_cache: dict[tuple[int, object], tuple[int, Optional[float]]] = {}

    def _rejoined_by(
        self, raw, stream: str, node: int, episode_key: object, recovery: float, time: float
    ) -> bool:
        """Has the rejoin that started at ``recovery`` completed by ``time``?

        Attempts run every leafset probe period from recovery; each draws
        ``join_contacts`` hash-chosen bootstrap contacts from its own
        stream (``stream``/``episode_key`` keep the label paths of the two
        models distinct and stable) and succeeds when all are online under
        ``raw``.  Only attempts due by ``time`` are evaluated and their
        streams derived; a later query resumes where this one stopped.
        """
        key = (node, episode_key)
        attempts, completion = self._rejoin_cache.get(key, (0, None))
        if completion is not None:
            return time >= completion
        period = self.pastry_config.leafset_probe_period
        num_nodes = raw.num_nodes
        while completion is None:
            at = recovery + attempts * period
            if at > time:
                break
            if attempts == self.max_attempts:
                completion = at  # pessimistic cap
                break
            rng = derive_rng(self.seed, stream, node, episode_key, attempts)
            contacts: list[int] = []
            while len(contacts) < min(self.join_contacts, num_nodes - 1):
                candidate = rng.randrange(num_nodes)
                if candidate != node and candidate not in contacts:
                    contacts.append(candidate)
            if all(raw.is_online(c, at) for c in contacts):
                completion = at
            attempts += 1
        self._rejoin_cache[key] = (attempts, completion)
        return completion is not None


class RejoinAdjustedAvailability(_RejoinModel):
    """Flapping availability adjusted for eviction + rejoin delays."""

    def __init__(
        self,
        schedule: FlappingSchedule,
        config: PastryConfig = PastryConfig(),
        seed: object = 0,
        join_contacts: int = 3,
        max_attempts: int = 64,
        scan_cycles: int = 64,
    ):
        super().__init__(config, seed, join_contacts, max_attempts)
        self.schedule = schedule
        self.scan_cycles = scan_cycles
        flap = schedule.config
        self._evictions_possible = (
            flap.probability > 0 and flap.offline_period >= self.eviction_threshold
        )

    # passthroughs so the probed-view oracle can wrap this object
    @property
    def num_nodes(self) -> int:
        return self.schedule.num_nodes

    @property
    def config(self):
        return self.schedule.config

    def is_online(self, node: int, time: float) -> bool:
        """Pastry-layer availability: genuinely online *and* joined."""
        if not self.schedule.is_online(node, time):
            return False
        if not self._evictions_possible or node in self.schedule.always_online:
            return True
        episode = self._last_completed_offline_episode(node, time)
        if episode is None:
            return True
        return self._rejoined_by(self.schedule, "rejoin", node, *episode, time)

    # -- internals -------------------------------------------------------------

    def _last_completed_offline_episode(self, node: int, time: float):
        """``(index, end time)`` of the most recent cycle whose offline part
        the node took and which ended at or before ``time`` (None if none in
        the scan window)."""
        flap = self.schedule.config
        cycle = flap.cycle
        phase = self.schedule.phase(node)
        if time < phase:
            return None
        current = int(math.floor((time - phase) / cycle))
        # An episode in cycle k ends at phase + (k+1)*cycle.  The latest
        # cycle that can have *ended* by `time` is current - 1 (or current
        # if we are exactly at/after its end, handled by the loop bound).
        for k in range(current, max(-1, current - self.scan_cycles), -1):
            episode_end = phase + (k + 1) * cycle
            if episode_end > time:
                continue
            if self.schedule.goes_offline(node, k):
                return k, episode_end
        return None


class IntervalRejoinAvailability(_RejoinModel):
    """Eviction + rejoin semantics over any interval-reporting process.

    A node whose offline window lasted at least the failure-detection
    horizon is declared failed and evicted; when the window ends, the node
    is effectively absent from the Pastry layer until a rejoin attempt —
    retried every leafset probe period through hash-chosen bootstrap
    contacts — finds all contacts online.  This is
    :class:`RejoinAdjustedAvailability` with the flapping-specific episode
    arithmetic replaced by the process's own
    ``offline_intervals(node, until)`` report, so join storms, regional
    outages, and composed timelines all get MSPastry's recovery cost.
    """

    def __init__(
        self,
        process,
        config: PastryConfig = PastryConfig(),
        seed: int | tuple = 0,
        join_contacts: int = 3,
        max_attempts: int = 64,
    ):
        super().__init__(config, seed, join_contacts, max_attempts)
        self.process = process
        #: node -> (horizon, sorted finite end times of eviction-length
        #: windows with start < horizon); see _recoveries_until
        self._recovery_cache: dict[int, tuple[float, list[float]]] = {}

    @property
    def num_nodes(self) -> int:
        return self.process.num_nodes

    @property
    def always_online(self) -> frozenset[int]:
        return frozenset(self.process.always_online)

    def _recoveries_until(self, node: int, time: float) -> list[float]:
        """Sorted end times of eviction-length offline windows, memoized
        with a geometrically grown horizon.

        Rebuilding the process's window list from t=0 per availability
        query would be quadratic in simulation time; window lists are
        append-only as the horizon grows (only the tail window's end can
        move, and any query at or past a moved end sees the node offline
        via the point view first), so a cached horizon stays consistent.
        """
        cached = self._recovery_cache.get(node)
        if cached is not None and time <= cached[0]:
            return cached[1]
        horizon = max(time, 2.0 * (cached[0] if cached else 0.0), 1.0)
        recoveries = [
            end
            for start, end in self.process.offline_intervals(node, horizon)
            if end - start >= self.eviction_threshold and not math.isinf(end)
        ]
        self._recovery_cache[node] = (horizon, recoveries)
        return recoveries

    def is_online(self, node: int, time: float) -> bool:
        """Pastry-layer availability: genuinely online *and* joined."""
        if not self.process.is_online(node, time):
            return False
        if node in self.process.always_online:
            return True
        # Most recent completed eviction-length window decides; later,
        # shorter windows never re-trigger eviction.
        recoveries = self._recoveries_until(node, time)
        index = bisect.bisect_right(recoveries, time) - 1
        if index < 0:
            return True
        recovery = recoveries[index]
        return self._rejoined_by(
            self.process, "interval-rejoin", node, recovery, recovery, time
        )
