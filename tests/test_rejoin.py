"""Tests for declared-failure eviction and rejoin semantics.

The library evaluates a rejoin only as far as a query needs it;
:func:`reference_rejoin_completion` is the eager loop it replaced (every
attempt up to the first success or the cap) and stays here as the oracle.
"""

from __future__ import annotations

import math
import random

import pytest

import repro.pastry.rejoin
from repro.errors import ConfigurationError
from repro.pastry.config import PastryConfig
from repro.pastry.rejoin import (
    IntervalRejoinAvailability,
    RejoinAdjustedAvailability,
    detection_horizon,
)
from repro.perturbation.flapping import FlappingConfig, FlappingSchedule
from repro.perturbation.storms import JoinStormConfig, JoinStormSchedule
from repro.perturbation.timeline import ScenarioTimeline
from repro.sim.rng import derive_rng

PERIOD = PastryConfig().leafset_probe_period


def _adjusted(idle, offline, p, n=10, seed=0, **kwargs):
    schedule = FlappingSchedule(FlappingConfig(idle, offline, p), n, seed=seed)
    return (
        RejoinAdjustedAvailability(schedule, PastryConfig(), seed=seed, **kwargs),
        schedule,
    )


def reference_rejoin_completion(
    is_online,
    num_nodes: int,
    seed: object,
    stream: str,
    node: int,
    episode_key: object,
    recovery: float,
    period: float = PERIOD,
    join_contacts: int = 3,
    max_attempts: int = 64,
) -> float:
    """Completion time of a rejoin starting at ``recovery``, run to the end:
    attempts every ``period``, each drawing ``join_contacts`` contacts from
    its own stream and succeeding when all are online."""
    for attempt in range(max_attempts):
        at = recovery + attempt * period
        rng = derive_rng(seed, stream, node, episode_key, attempt)
        contacts: list[int] = []
        while len(contacts) < min(join_contacts, num_nodes - 1):
            candidate = rng.randrange(num_nodes)
            if candidate != node and candidate not in contacts:
                contacts.append(candidate)
        if all(is_online(c, at) for c in contacts):
            return at
    return recovery + max_attempts * period  # pessimistic cap


def _flapping_completion(adjusted, node, episode):
    """Reference completion of ``node``'s rejoin after flapping cycle
    ``episode``, with the labels ``RejoinAdjustedAvailability`` uses."""
    schedule = adjusted.schedule
    recovery = schedule.phase(node) + (episode + 1) * schedule.config.cycle
    return reference_rejoin_completion(
        schedule.is_online,
        schedule.num_nodes,
        adjusted.seed,
        "rejoin",
        node,
        episode,
        recovery,
        join_contacts=adjusted.join_contacts,
        max_attempts=adjusted.max_attempts,
    )


def _reference_flapping_online(adjusted, node, time):
    """``raw_online and time >= completion of the last completed episode``."""
    schedule = adjusted.schedule
    if not schedule.is_online(node, time):
        return False
    cycle = schedule.config.cycle
    current = int(math.floor((time - schedule.phase(node)) / cycle))
    for k in range(current, -1, -1):
        if schedule.phase(node) + (k + 1) * cycle <= time and schedule.goes_offline(node, k):
            return time >= _flapping_completion(adjusted, node, k)
    return True


def _reference_interval_online(adjusted, node, time):
    """The same rule over the process's own offline windows."""
    process = adjusted.process
    if not process.is_online(node, time):
        return False
    if node in process.always_online:
        return True
    recoveries = [
        end
        for start, end in process.offline_intervals(node, time + 1.0)
        if end - start >= detection_horizon(adjusted.pastry_config) and end <= time
    ]
    if not recoveries:
        return True
    recovery = recoveries[-1]
    return time >= reference_rejoin_completion(
        process.is_online,
        process.num_nodes,
        adjusted.seed,
        "interval-rejoin",
        node,
        recovery,
        recovery,
    )


def _count_attempt_streams(monkeypatch):
    """Record ``(seed, *labels)`` of every stream ``repro.pastry.rejoin`` derives."""
    derived: list[tuple] = []

    def counting(seed, *labels):
        derived.append((seed, *labels))
        return derive_rng(seed, *labels)

    monkeypatch.setattr(repro.pastry.rejoin, "derive_rng", counting)
    return derived


class TestThreshold:
    def test_short_offline_periods_never_evict(self):
        for label in ((1, 1), (30, 30), (45, 15)):
            adjusted, schedule = _adjusted(label[0], label[1], 1.0)
            assert not adjusted._evictions_possible
            for node in range(10):
                for t in (10.0, 100.0, 333.0, 1234.0):
                    assert adjusted.is_online(node, t) == schedule.is_online(node, t)

    def test_long_offline_periods_evict(self):
        adjusted, _ = _adjusted(300, 300, 1.0)
        assert adjusted._evictions_possible

    def test_zero_probability_never_evicts(self):
        adjusted, _ = _adjusted(300, 300, 0.0)
        assert not adjusted._evictions_possible
        assert adjusted.is_online(0, 5000.0)


class TestRejoinDelay:
    def test_offline_node_still_offline(self):
        adjusted, schedule = _adjusted(300, 300, 1.0, seed=1)
        for node in range(10):
            phase = schedule.phase(node)
            assert not adjusted.is_online(node, phase + 450.0)  # mid offline part

    def test_node_unavailable_right_after_recovery(self):
        """Immediately after a long outage the node is genuinely online but
        still rejoining, so the Pastry layer sees it offline."""
        adjusted, schedule = _adjusted(300, 300, 1.0, seed=2)
        node = 3
        phase = schedule.phase(node)
        recovery = phase + 600.0  # end of first cycle's offline episode
        assert schedule.is_online(node, recovery + 1.0)
        completion = _flapping_completion(adjusted, node, 0)
        if completion > recovery + 1.0:
            assert not adjusted.is_online(node, recovery + 1.0)
        assert adjusted.is_online(node, completion + 1.0) == schedule.is_online(
            node, completion + 1.0
        )

    def test_rejoin_eventually_completes_in_healthy_network(self):
        # p small: contacts are almost always online, so rejoin is immediate
        adjusted, schedule = _adjusted(300, 300, 0.15, n=20, seed=3)
        node = 0
        # find this node's first actual offline episode
        episode = None
        for k in range(40):
            if schedule.goes_offline(node, k):
                episode = k
                break
        if episode is None:
            return  # this seed never flapped the node; nothing to check
        completion = _flapping_completion(adjusted, node, episode)
        recovery = schedule.phase(node) + (episode + 1) * 600.0
        assert completion - recovery <= 2 * PERIOD
        assert adjusted.is_online(node, recovery + 2 * PERIOD)
        assert adjusted.is_online(node, completion)

    def test_rejoin_completion_cached(self, monkeypatch):
        adjusted, _ = _adjusted(300, 300, 1.0, seed=4)
        derived = _count_attempt_streams(monkeypatch)
        completion = _flapping_completion(adjusted, 2, 0)
        first = adjusted.is_online(2, completion)
        streams = len(derived)
        assert adjusted.is_online(2, completion) == first
        assert len(derived) == streams  # answered from the cache
        attempts, cached = adjusted._rejoin_cache[(2, 0)]
        assert cached == completion
        assert attempts == streams

    def test_always_online_nodes_exempt(self):
        schedule = FlappingSchedule(
            FlappingConfig(300, 300, 1.0), 10, seed=5, always_online={0}
        )
        adjusted = RejoinAdjustedAvailability(schedule, PastryConfig(), seed=5)
        for t in (0.0, 450.0, 900.0, 5000.0):
            assert adjusted.is_online(0, t)

    def test_passthrough_properties(self):
        adjusted, schedule = _adjusted(300, 300, 0.5)
        assert adjusted.num_nodes == schedule.num_nodes
        assert adjusted.config is schedule.config

    def test_effective_availability_below_raw_at_high_p(self):
        adjusted, schedule = _adjusted(300, 300, 1.0, n=30, seed=6)
        times = [1000.0 + 37.0 * k for k in range(60)]
        raw = sum(schedule.is_online(n, t) for n in range(30) for t in times)
        adj = sum(adjusted.is_online(n, t) for n in range(30) for t in times)
        assert adj < raw


class _Scripted:
    """Availability from a table of offline windows ``[start, end)``."""

    always_online: frozenset[int] = frozenset()

    def __init__(self, num_nodes, offline):
        self.num_nodes = num_nodes
        self.offline = offline

    def is_online(self, node, time):
        return not any(start <= time < end for start, end in self.offline.get(node, ()))

    def offline_intervals(self, node, until):
        return [w for w in self.offline.get(node, ()) if w[0] < until]


def _interval_models():
    flapping = FlappingSchedule(FlappingConfig(300, 300, 0.9), 12, seed=7, always_online={0})
    storm = JoinStormSchedule(JoinStormConfig(arrival_time=900.0, late_fraction=0.5), 12, seed=7)
    return [
        IntervalRejoinAvailability(flapping, PastryConfig(), seed=7),
        IntervalRejoinAvailability(
            ScenarioTimeline([flapping, storm]), PastryConfig(), seed=(7, "x")
        ),
    ]


def _query_times(count, horizon, seed):
    rng = random.Random(seed)  # test-local shuffling, not a library stream
    times = [horizon * k / count + rng.uniform(0.0, 5.0) for k in range(count)]
    rng.shuffle(times)
    return times


class TestDemandDrivenAttempts:
    """Evaluating only the attempts a query needs changes no answer."""

    @pytest.mark.parametrize("p", [0.6, 1.0])
    def test_flapping_model_equals_eager_reference(self, p):
        adjusted, schedule = _adjusted(300, 300, p, n=12, seed=8)
        rejoining = 0
        for time in _query_times(80, 6000.0, seed=1):
            for node in range(12):
                got = adjusted.is_online(node, time)
                assert got == _reference_flapping_online(adjusted, node, time), (node, time)
                rejoining += schedule.is_online(node, time) and not got
        assert rejoining  # the comparison saw unfinished rejoins, not only raw answers

    def test_interval_model_equals_eager_reference(self):
        for adjusted in _interval_models():
            rejoining = 0
            for time in _query_times(80, 6000.0, seed=2):
                for node in range(12):
                    got = adjusted.is_online(node, time)
                    assert got == _reference_interval_online(adjusted, node, time), (node, time)
                    rejoining += adjusted.process.is_online(node, time) and not got
            assert rejoining

    def test_answers_exactly_on_attempt_and_completion_times(self):
        adjusted, schedule = _adjusted(300, 300, 1.0, n=12, seed=9)
        for node in range(12):
            recovery = schedule.phase(node) + 600.0
            completion = _flapping_completion(adjusted, node, 0)
            for time in (recovery, completion, completion - 1e-9, recovery + PERIOD):
                assert adjusted.is_online(node, time) == (
                    schedule.is_online(node, time) and time >= completion
                ), (node, time)

    def test_no_attempt_stream_is_derived_twice(self, monkeypatch):
        derived = _count_attempt_streams(monkeypatch)
        adjusted, _ = _adjusted(300, 300, 1.0, n=12, seed=10)
        models = [adjusted, *_interval_models()]
        for _round in range(2):  # repeated, and each round out of order
            for time in _query_times(60, 6000.0, seed=3):
                for model in models:
                    for node in range(12):
                        model.is_online(node, time)
        assert derived
        assert len(derived) == len(set(derived))

    def test_only_due_attempts_are_evaluated(self, monkeypatch):
        derived = _count_attempt_streams(monkeypatch)
        adjusted, schedule = _adjusted(300, 300, 1.0, n=12, seed=11)
        node = next(  # one whose first two attempts fail
            n
            for n in range(12)
            if _flapping_completion(adjusted, n, 0) > schedule.phase(n) + 600.0 + PERIOD
        )
        recovery = schedule.phase(node) + 600.0
        assert not adjusted.is_online(node, recovery + 1.0)
        assert derived == [(11, "rejoin", node, 0, 0)]
        assert adjusted._rejoin_cache[(node, 0)] == (1, None)
        assert not adjusted.is_online(node, recovery + PERIOD)
        assert derived[1:] == [(11, "rejoin", node, 0, 1)]
        assert not adjusted.is_online(node, recovery + 2.0)  # earlier again: nothing new
        assert len(derived) == 2

    def test_pessimistic_cap_interval_model(self):
        # node 0 returns at t=400 into a network whose contacts never are online
        process = _Scripted(5, {0: [(100.0, 400.0)], **{n: [(0.0, math.inf)] for n in range(1, 5)}})
        adjusted = IntervalRejoinAvailability(process, PastryConfig(), seed=0, max_attempts=5)
        cap = 400.0 + 5 * PERIOD
        assert not adjusted.is_online(0, 400.0 + 4 * PERIOD)  # last attempt fails too
        assert not adjusted.is_online(0, math.nextafter(cap, 0.0))
        assert adjusted.is_online(0, cap)
        assert adjusted._rejoin_cache[(0, 400.0)] == (5, cap)
        assert not adjusted.is_online(0, cap - 1.0)

    def test_pessimistic_cap_flapping_model(self):
        class OnlyNodeZeroEverOnline(FlappingSchedule):
            def is_online(self, node, time):
                return node == 0 and super().is_online(node, time)

        schedule = OnlyNodeZeroEverOnline(FlappingConfig(300, 300, 1.0), 6, seed=0)
        adjusted = RejoinAdjustedAvailability(schedule, PastryConfig(), seed=0, max_attempts=4)
        recovery = schedule.phase(0) + 600.0
        cap = recovery + 4 * PERIOD
        assert cap == _flapping_completion(adjusted, 0, 0)
        for time in (cap, recovery, math.nextafter(cap, 0.0), recovery + 3 * PERIOD, cap + 1.0):
            assert adjusted.is_online(0, time) == (time >= cap), time
        assert adjusted._rejoin_cache[(0, 0)] == (4, cap)


class TestSeedValidation:
    @pytest.mark.parametrize("seed", ["0", 0.0, True])
    def test_bad_seed_roots_rejected(self, seed):
        schedule = FlappingSchedule(FlappingConfig(300, 300, 1.0), 4, seed=0)
        with pytest.raises(ConfigurationError, match="seed root must be an int"):
            RejoinAdjustedAvailability(schedule, PastryConfig(), seed=seed)
        with pytest.raises(ConfigurationError, match="seed root must be an int"):
            IntervalRejoinAvailability(schedule, PastryConfig(), seed=(seed, "rejoin"))
