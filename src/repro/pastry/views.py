"""The probed-view oracle: each node's liveness beliefs under flapping.

MSPastry nodes learn about failures by probing: leaf-set members every 30 s
and routing-table entries every 90 s, with a 3 s probe timeout and 2
retries.  Simulating every probe message over the 600 000-second 300:300
runs is infeasible per-message in Python, so the oracle computes, on
demand, the *outcome* of the most recent probe interaction between an
observer and a target — which is exactly the observer's current belief.
The tests check it against an event-driven forward replay of the same
probes on small cases.

Belief rules (per observer ``y``, target ``x``, time ``t``):

- ``y`` probes ``x`` at epochs ``phase(y) + k*P`` while online; a probe
  attempt succeeds if ``x`` responds to the initial send or either retry
  (spaced ``probe_timeout`` apart).  A successful attempt sets belief
  *alive* at the response time; a failed attempt sets belief *dead* once
  the last retry times out.
- For leaf sets, probing is symmetric: ``x`` probing ``y`` announces ``x``
  alive whenever both endpoints are online at one of the attempt times
  (this is how recovered nodes are re-added).  Routing-table entries get no
  such announcement (``x`` does not generally know it is in ``y``'s table).
- With no decisive interaction in the scan window, the initial belief
  (alive — the overlay was built on a static, fully-online stage) stands.

The most recent decisive event before ``t`` wins.  An announcement can only
say *alive*, so that rule is evaluated from the observer's side: the belief
is *dead* iff the observer's own latest verdict is dead and no announcement
lands at or after it (an announcement at the same instant wins the tie).
The target's announcements are therefore scanned only behind a dead verdict,
and only back to the epoch whose last attempt precedes it.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.pastry.config import PastryConfig
from repro.pastry.routing import LEAFSET, TABLE
from repro.perturbation.flapping import FlappingSchedule
from repro.sim.rng import derive_rng, validate_seed


class ProbedViewOracle:
    """Analytic per-(observer, target, time) liveness beliefs."""

    #: probe epochs a belief scans back from the query time; older probes
    #: are forgotten and the initial belief (alive) stands
    SCAN_LIMIT = 120

    def __init__(
        self,
        schedule: FlappingSchedule,
        config: PastryConfig = PastryConfig(),
        seed: object = 0,
    ):
        validate_seed(seed)
        self.schedule = schedule
        self.config = config
        #: when each probe attempt leaves, after its epoch's start: the
        #: initial send plus retries, spaced by the probe timeout
        self._attempt_offsets = tuple(
            k * config.probe_timeout for k in range(config.probe_retries + 1)
        )
        n = schedule.num_nodes
        leafset_rng = derive_rng(seed, "probe-phase-leafset", n)
        table_rng = derive_rng(seed, "probe-phase-table", n)
        self._leafset_phase = [
            leafset_rng.uniform(0.0, config.leafset_probe_period) for _ in range(n)
        ]
        self._table_phase = [
            table_rng.uniform(0.0, config.routing_table_probe_period) for _ in range(n)
        ]

    def probe_phase(self, node: int, kind: str) -> float:
        if kind == LEAFSET:
            return self._leafset_phase[node]
        if kind == TABLE:
            return self._table_phase[node]
        raise ConfigurationError(f"unknown probe kind {kind!r}")

    def probe_period(self, kind: str) -> float:
        if kind == LEAFSET:
            return self.config.leafset_probe_period
        if kind == TABLE:
            return self.config.routing_table_probe_period
        raise ConfigurationError(f"unknown probe kind {kind!r}")

    # -- probe attempt outcomes ---------------------------------------------

    def _own_probe_event(
        self, observer: int, target: int, start: float, now: float
    ) -> Optional[tuple[float, bool]]:
        """Decisive (time, verdict) of an observer-initiated probe attempt
        starting at ``start``, as known at ``now``; None if skipped or still
        undecided."""
        online = self.schedule.is_online
        if not online(observer, start):
            return None  # observer offline: probe skipped
        for offset in self._attempt_offsets:
            attempt = start + offset
            if online(target, attempt):
                if attempt <= now:
                    return (attempt, True)
                return None  # success lies in the future; undecided at `now`
        conclusion = start + (self.config.probe_retries + 1) * self.config.probe_timeout
        if conclusion <= now:
            return (conclusion, False)
        return None

    def _incoming_probe_event(
        self, observer: int, target: int, start: float, now: float
    ) -> Optional[tuple[float, bool]]:
        """Decisive (time, alive) of a target-initiated probe of the
        observer: the observer learns the target is alive iff both are
        online at one of the attempt times."""
        online = self.schedule.is_online
        if not online(target, start):
            return None
        for offset in self._attempt_offsets:
            attempt = start + offset
            if attempt > now:
                return None
            if online(target, attempt) and online(observer, attempt):
                return (attempt, True)
        return None

    def _latest_event(
        self,
        observer: int,
        target: int,
        now: float,
        kind: str,
        incoming: bool,
        since: float = float("-inf"),
    ) -> Optional[tuple[float, bool]]:
        """Newest decisive probe event, scanning the prober's epochs back
        from ``now``; an epoch whose last attempt falls before ``since``
        ends the scan, because nothing that old can outrank ``since``."""
        period = self.probe_period(kind)
        phase = self.probe_phase(target if incoming else observer, kind)
        if now < phase:
            return None
        probe_event = self._incoming_probe_event if incoming else self._own_probe_event
        last_attempt = self.config.probe_retries * self.config.probe_timeout
        max_epoch = int((now - phase) // period)
        min_epoch = max(0, max_epoch - self.SCAN_LIMIT + 1)
        for epoch in range(max_epoch, min_epoch - 1, -1):
            start = phase + epoch * period
            if start + last_attempt < since:
                return None
            event = probe_event(observer, target, start, now)
            if event is not None:
                return event
        return None

    # -- public API -----------------------------------------------------------

    def believes_alive(
        self, observer: int, target: int, now: float, kind: str = LEAFSET
    ) -> bool:
        """Does ``observer`` currently believe ``target`` is alive?"""
        if observer == target:
            return True
        own = self._latest_event(observer, target, now, kind, incoming=False)
        if own is None or own[1]:
            return True  # initial belief (built fully online), or x answered
        if kind != LEAFSET:
            return False
        announced = self._latest_event(
            observer, target, now, kind, incoming=True, since=own[0]
        )
        return announced is not None and announced[0] >= own[0]

    # -- maintenance traffic accounting ---------------------------------------

    def expected_maintenance_messages(
        self,
        duration: float,
        avg_leafset_size: float,
        avg_table_entries: float,
    ) -> float:
        """Analytic estimate of maintenance messages over ``duration``.

        Each online node sends one probe per monitored peer per period;
        failed first attempts add retries.  Used for Figure 12's
        total-traffic comparison (magnitudes, not exact counts).
        """
        cfg = self.schedule.config
        online_share = 1.0 - cfg.expected_offline_fraction
        offline_fraction = cfg.expected_offline_fraction
        retry_factor = 1.0 + offline_fraction * self.config.probe_retries
        n = self.schedule.num_nodes
        leafset_rounds = duration / self.config.leafset_probe_period
        table_rounds = duration / self.config.routing_table_probe_period
        return n * online_share * retry_factor * (
            leafset_rounds * avg_leafset_size + table_rounds * avg_table_entries
        )
