"""Tests for the probed-view oracle (maintenance beliefs).

The oracle asks the target's announcements only behind a dead own verdict;
:func:`reference_believes_alive` is the rule it replaced — both scans to
the end of the window, then "the latest event wins" by sorting — and stays
here as the oracle's oracle, beside :class:`MaintenanceReplay`, an
event-driven forward replay of the same probe schedule.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.pastry.config import PastryConfig
from repro.pastry.rejoin import RejoinAdjustedAvailability
from repro.pastry.views import LEAFSET, TABLE, ProbedViewOracle
from repro.perturbation.flapping import FlappingConfig, FlappingSchedule


def _oracle(idle, offline, p, n=6, seed=0, **kwargs):
    schedule = FlappingSchedule(FlappingConfig(idle, offline, p), n, seed=seed)
    return ProbedViewOracle(schedule, PastryConfig(), seed=seed, **kwargs), schedule


def _reference_latest_event(oracle, observer, target, now, kind, incoming):
    period = oracle.probe_period(kind)
    prober = target if incoming else observer
    phase = oracle.probe_phase(prober, kind)
    if now < phase:
        return None
    max_epoch = int((now - phase) // period)
    min_epoch = max(0, max_epoch - oracle.scan_limit + 1)
    for epoch in range(max_epoch, min_epoch - 1, -1):
        start = phase + epoch * period
        if incoming:
            event = oracle._incoming_probe_event(observer, target, start, now)
        else:
            event = oracle._own_probe_event(observer, target, start, now)
        if event is not None:
            return event
    return None


def reference_believes_alive(oracle, observer, target, now, kind=LEAFSET):
    """The most recent decisive event wins, found the long way round."""
    if observer == target:
        return True
    events = []
    own = _reference_latest_event(oracle, observer, target, now, kind, incoming=False)
    if own is not None:
        events.append(own)
    if kind == LEAFSET:
        incoming = _reference_latest_event(oracle, observer, target, now, kind, incoming=True)
        if incoming is not None:
            events.append(incoming)
    if not events:
        return True  # initial belief: the overlay was built fully online
    events.sort()
    return events[-1][1]


class MaintenanceReplay:
    """Forward replay of probe interactions for a set of (observer, target)
    pairs, producing belief timelines.

    The oracle computes beliefs by scanning *backward* from a query time;
    this replays the same probe schedule *forward* with explicit events and
    records belief transitions — an independent implementation to check
    the oracle against, within its scan window.
    """

    def __init__(
        self,
        oracle: ProbedViewOracle,
        pairs: Iterable[tuple[int, int]],
        kind: str = LEAFSET,
        until: float = 0.0,
    ):
        self.oracle = oracle
        self.kind = kind
        self.until = until
        self.pairs = sorted(set(pairs))
        # timeline per pair: sorted list of (event_time, verdict)
        self._timeline: dict[tuple[int, int], list[tuple[float, bool]]] = {}
        for observer, target in self.pairs:
            self._timeline[(observer, target)] = self._build_timeline(observer, target)

    def _build_timeline(self, observer: int, target: int) -> list[tuple[float, bool]]:
        oracle = self.oracle
        period = oracle.probe_period(self.kind)
        events: list[tuple[float, bool]] = []

        # Observer-initiated probes.
        phase = oracle.probe_phase(observer, self.kind)
        epoch = 0
        while True:
            start = phase + epoch * period
            if start > self.until:
                break
            event = oracle._own_probe_event(observer, target, start, float("inf"))
            if event is not None and event[0] <= self.until:
                events.append(event)
            epoch += 1

        # Target-initiated probes (leafset symmetry).
        if self.kind == LEAFSET:
            phase = oracle.probe_phase(target, self.kind)
            epoch = 0
            while True:
                start = phase + epoch * period
                if start > self.until:
                    break
                event = oracle._incoming_probe_event(
                    observer, target, start, float("inf")
                )
                if event is not None and event[0] <= self.until:
                    events.append(event)
                epoch += 1

        events.sort()
        return events

    def believes_alive(self, observer: int, target: int, now: float) -> bool:
        """Belief of ``observer`` about ``target`` at ``now`` per the replay."""
        if observer == target:
            return True
        timeline = self._timeline[(observer, target)]
        index = bisect.bisect_right(timeline, (now, True)) - 1
        # bisect with (now, True) may land on an event at exactly `now`
        # with verdict False ordered after (now, False); walk back if needed.
        while index >= 0 and timeline[index][0] > now:
            index -= 1
        if index < 0:
            return True
        return timeline[index][1]

    def transitions(self, observer: int, target: int) -> list[tuple[float, bool]]:
        """Full decisive-event timeline for a pair."""
        return list(self._timeline[(observer, target)])


class TestBasics:
    def test_all_online_all_believed_alive(self):
        oracle, _ = _oracle(30, 30, 0.0)
        for y, x in itertools.permutations(range(6), 2):
            for t in (0.0, 100.0, 1000.0):
                assert oracle.believes_alive(y, x, t, LEAFSET)
                assert oracle.believes_alive(y, x, t, TABLE)

    def test_self_belief(self):
        oracle, _ = _oracle(30, 30, 1.0)
        assert oracle.believes_alive(3, 3, 500.0)

    def test_initial_belief_alive(self):
        oracle, _ = _oracle(300, 300, 1.0)
        # before any probe could have fired
        assert oracle.believes_alive(0, 1, 0.0, LEAFSET)

    def test_long_dead_target_becomes_believed_dead(self):
        oracle, schedule = _oracle(300, 300, 1.0, seed=3)
        # find a time where node 1 has been offline for > one probe round
        # and node 0 online (so node 0 probed it)
        found = False
        for t in range(100, 3000, 10):
            t = float(t)
            if (
                not schedule.is_online(1, t)
                and not schedule.is_online(1, t - 45.0)
                and schedule.is_online(0, t)
                and schedule.is_online(0, t - 45.0)
            ):
                assert not oracle.believes_alive(0, 1, t, LEAFSET)
                found = True
                break
        assert found

    def test_recovered_target_becomes_believed_alive_again(self):
        oracle, schedule = _oracle(300, 300, 1.0, seed=4)
        # a time where node 1 has been online for > one probe round
        found = False
        for t in range(400, 4000, 10):
            t = float(t)
            if all(schedule.is_online(1, t - dt) for dt in (0.0, 20.0, 40.0)) and all(
                schedule.is_online(0, t - dt) for dt in (0.0, 20.0, 40.0)
            ):
                assert oracle.believes_alive(0, 1, t, LEAFSET)
                found = True
                break
        assert found

    def test_probe_phase_within_period(self):
        oracle, _ = _oracle(30, 30, 0.5)
        config = PastryConfig()
        for node in range(6):
            assert 0 <= oracle.probe_phase(node, LEAFSET) < config.leafset_probe_period
            assert (
                0
                <= oracle.probe_phase(node, TABLE)
                < config.routing_table_probe_period
            )

    def test_unknown_kind_rejected(self):
        oracle, _ = _oracle(30, 30, 0.5)
        with pytest.raises(ConfigurationError):
            oracle.probe_period("gossip")

    def test_unknown_kind_has_no_phase_either(self):
        oracle, _ = _oracle(30, 30, 0.5)
        with pytest.raises(ConfigurationError, match="unknown probe kind 'bogus'"):
            oracle.probe_phase(0, "bogus")

    @pytest.mark.parametrize("seed", ["0", 0.0, True])
    def test_bad_seed_roots_rejected(self, seed):
        schedule = FlappingSchedule(FlappingConfig(30, 30, 0.5), 4, seed=0)
        with pytest.raises(ConfigurationError, match="seed root must be an int"):
            ProbedViewOracle(schedule, PastryConfig(), seed=seed)

    def test_scan_limit_validated(self):
        schedule = FlappingSchedule(FlappingConfig(1, 1, 0.5), 4, seed=0)
        with pytest.raises(ConfigurationError):
            ProbedViewOracle(schedule, PastryConfig(), scan_limit=0)

    def test_short_flap_bridged_by_probe_retries(self):
        """With 1:1 flapping, a probe that catches a node offline retries 3 s
        later when the node is back: nodes stay believed alive."""
        oracle, schedule = _oracle(1, 1, 1.0, seed=5)
        sampled = 0
        believed_alive = 0
        for t in range(50, 250):
            t = float(t)
            if schedule.is_online(0, t):
                sampled += 1
                believed_alive += oracle.believes_alive(0, 1, t, LEAFSET)
        assert sampled > 0
        assert believed_alive / sampled > 0.95


class TestAgainstReplay:
    """The oracle's backward scan must agree with a forward event replay."""

    @pytest.mark.parametrize("idle,offline,p", [(30, 30, 0.7), (45, 15, 0.5), (300, 300, 0.9)])
    def test_exact_agreement(self, idle, offline, p):
        oracle, _schedule = _oracle(idle, offline, p, n=5, seed=11, scan_limit=10_000)
        horizon = 40 * (idle + offline)
        pairs = list(itertools.permutations(range(5), 2))
        replay = MaintenanceReplay(oracle, pairs, kind=LEAFSET, until=horizon)
        times = [13.7 + k * (horizon - 20) / 60 for k in range(60)]
        for y, x in pairs:
            for t in times:
                assert oracle.believes_alive(y, x, t, LEAFSET) == replay.believes_alive(
                    y, x, t
                ), (y, x, t)

    def test_replay_transitions_sorted(self):
        oracle, _ = _oracle(30, 30, 0.8, n=4, seed=12)
        replay = MaintenanceReplay(oracle, [(0, 1)], kind=LEAFSET, until=1000.0)
        events = replay.transitions(0, 1)
        assert events == sorted(events)


class _Scripted:
    """Availability from a table of offline windows ``[start, end)``."""

    def __init__(self, num_nodes, offline):
        self.num_nodes = num_nodes
        self.offline = offline

    def is_online(self, node, time):
        return not any(start <= time < end for start, end in self.offline.get(node, ()))


class _ScriptedPhaseOracle(ProbedViewOracle):
    """An oracle whose probe phases the test chooses, so that one node's
    conclusion times can fall exactly on another's attempt times."""

    def __init__(self, schedule, phases, config=PastryConfig(), **kwargs):
        super().__init__(schedule, config, **kwargs)
        self.phases = phases

    def probe_phase(self, node, kind):
        return self.phases[node]


def _scripted(phases, offline, **kwargs):
    return _ScriptedPhaseOracle(_Scripted(len(phases), offline), phases, **kwargs)


#: periods shorter than one attempt's retries, so consecutive epochs overlap
#: and "newest epoch" is not "latest event"
OVERLAPPING = PastryConfig(leafset_probe_period=5.0, routing_table_probe_period=7.0)


def _halves(low, high):
    return st.integers(2 * low, 2 * high).map(lambda half: half / 2)


@st.composite
def _verdict_scenes(draw):
    """Two nodes around one dead verdict: ``y`` (node 0) probes at ``a``
    into an outage of ``x`` and concludes at ``a + 9``; ``x`` returns and
    starts its own probe at or just before that instant, where ``y`` may
    itself be away for a retry or two; later ``x`` may vanish again."""
    a = draw(st.integers(0, 20))
    x_phase = a + 9 - draw(st.integers(0, 3))
    x_offline = [(a - draw(st.integers(0, 3)), x_phase - draw(_halves(0, 2)))]
    if draw(st.booleans()):
        again = a + draw(st.integers(20, 60))
        x_offline.append((again, again + draw(st.integers(1, 80))))
    y_offline = []
    if draw(st.booleans()):
        y_offline.append((x_phase - draw(_halves(0, 2)), x_phase + draw(_halves(0, 7))))
    return [float(a), float(x_phase)], {0: y_offline, 1: x_offline}


_windows = st.lists(
    st.tuples(st.integers(0, 400), st.integers(1, 150)).map(lambda w: (w[0], w[0] + w[1])),
    max_size=4,
)


class TestAgainstReference:
    """Scanning announcements only behind a dead verdict changes no belief."""

    def test_announcement_at_the_same_instant_wins(self):
        # y probes at 0, 3, 6 into x's outage and concludes "dead" at 9.0 —
        # the instant x, back online, starts its own probe of y
        oracle = _scripted([0.0, 9.0], {1: [(0.0, 8.0)]})
        assert oracle._own_probe_event(0, 1, 0.0, 9.0) == (9.0, False)
        assert oracle._incoming_probe_event(0, 1, 9.0, 9.0) == (9.0, True)
        for now in (9.0, 9.5, 29.0):
            assert oracle.believes_alive(0, 1, now) is True
            assert reference_believes_alive(oracle, 0, 1, now) is True

    def test_announcement_in_a_retry_after_the_verdict_wins(self):
        # x's probe starts at 7 < 9 but y is offline until its retry at 10
        oracle = _scripted([0.0, 7.0], {1: [(0.0, 6.5)], 0: [(6.9, 9.5)]})
        assert oracle._own_probe_event(0, 1, 0.0, 12.0) == (9.0, False)
        assert oracle._incoming_probe_event(0, 1, 7.0, 12.0) == (10.0, True)
        assert not oracle.believes_alive(0, 1, 9.5)
        assert oracle.believes_alive(0, 1, 10.0)
        assert oracle.believes_alive(0, 1, 12.0) == reference_believes_alive(oracle, 0, 1, 12.0)

    def test_announcement_one_epoch_older_loses(self):
        # x announced itself at 9, then vanished; y's probe at 30 says dead at 39
        oracle = _scripted([0.0, 9.0], {1: [(20.0, 1000.0)]})
        assert oracle._incoming_probe_event(0, 1, 9.0, 100.0) == (9.0, True)
        for now in (38.9, 39.0, 45.0, 100.0):
            assert oracle.believes_alive(0, 1, now) is (now < 39.0)
            assert reference_believes_alive(oracle, 0, 1, now) is (now < 39.0)

    def test_no_own_verdict_inside_the_scan_window_means_alive(self):
        # "dead" at 9, then y itself is offline for scan_limit probe rounds
        offline = {1: [(0.0, 1000.0)], 0: [(25.0, 1000.0)]}
        short = _scripted([0.0, 9.0], offline, scan_limit=3)
        assert not short.believes_alive(0, 1, 65.0)  # epochs 2, 1, 0: still sees it
        assert short.believes_alive(0, 1, 95.0)  # epochs 3, 2, 1: all skipped
        assert reference_believes_alive(short, 0, 1, 95.0)
        assert not _scripted([0.0, 9.0], offline, scan_limit=120).believes_alive(0, 1, 95.0)

    @given(
        phases=st.lists(st.integers(0, 29), min_size=2, max_size=4),
        windows=st.lists(_windows, min_size=4, max_size=4),
        config=st.sampled_from([PastryConfig(), OVERLAPPING]),
        scan_limit=st.sampled_from([3, 120]),
        kind=st.sampled_from([LEAFSET, TABLE]),
        times=st.lists(_halves(0, 600), min_size=1, max_size=12),
    )
    def test_scripted_windows_on_an_integer_lattice(
        self, phases, windows, config, scan_limit, kind, times
    ):
        """Integer phases and window edges: verdicts, announcements and
        queries share instants all the time."""
        oracle = _scripted(
            [float(p) for p in phases],
            dict(enumerate(windows)),
            config=config,
            scan_limit=scan_limit,
        )
        for y, x in itertools.permutations(range(len(phases)), 2):
            for now in times:
                assert oracle.believes_alive(y, x, now, kind) == reference_believes_alive(
                    oracle, y, x, now, kind
                ), (y, x, now)

    @settings(max_examples=200)
    @given(
        scene=_verdict_scenes(),
        config=st.sampled_from([PastryConfig(), OVERLAPPING]),
        offsets=st.lists(_halves(0, 120), min_size=1, max_size=8),
    )
    def test_scripted_windows_around_a_dead_verdict(self, scene, config, offsets):
        """The three built cases with every edge moved about: the tie, the
        announcement that only a retry delivers, the older announcement."""
        phases, offline = scene
        oracle = _scripted(phases, offline, config=config)
        for y, x in ((0, 1), (1, 0)):
            for offset in offsets:
                now = phases[0] + 9.0 + offset
                assert oracle.believes_alive(y, x, now) == reference_believes_alive(
                    oracle, y, x, now
                ), (y, x, now)

    @given(
        flap=st.sampled_from(
            [(1, 1, 1.0), (30, 30, 0.7), (45, 15, 0.5), (300, 300, 0.9), (300, 300, 1.0)]
        ),
        seed=st.integers(0, 30),
        rejoin=st.booleans(),
        scan_limit=st.sampled_from([3, 120]),
        kind=st.sampled_from([LEAFSET, TABLE]),
        off_lattice=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        on_lattice=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 80), st.integers(0, 3)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_flapping_with_and_without_rejoin(
        self, flap, seed, rejoin, scan_limit, kind, off_lattice, on_lattice
    ):
        """``now`` anywhere, and exactly on an attempt time (``k`` <= retries)
        or a conclusion time (``k`` = retries + 1) of some node's probe."""
        n = 6
        schedule = FlappingSchedule(FlappingConfig(*flap), n, seed=seed)
        if rejoin:
            schedule = RejoinAdjustedAvailability(schedule, PastryConfig(), seed=seed)
        oracle = ProbedViewOracle(schedule, PastryConfig(), seed=seed, scan_limit=scan_limit)
        horizon = 80 * oracle.probe_period(kind)
        times = [fraction * horizon for fraction in off_lattice] + [
            oracle.probe_phase(node, kind)
            + epoch * oracle.probe_period(kind)
            + k * oracle.config.probe_timeout
            for node, epoch, k in on_lattice
        ]
        for y, x in itertools.permutations(range(n), 2):
            for now in times:
                assert oracle.believes_alive(y, x, now, kind) == reference_believes_alive(
                    oracle, y, x, now, kind
                ), (y, x, now)


class TestMaintenanceTrafficEstimate:
    def test_scales_with_duration_and_sizes(self):
        oracle, _ = _oracle(30, 30, 0.5, n=10)
        small = oracle.expected_maintenance_messages(1000.0, 8.0, 20.0)
        double_duration = oracle.expected_maintenance_messages(2000.0, 8.0, 20.0)
        assert double_duration == pytest.approx(2 * small)
        more_entries = oracle.expected_maintenance_messages(1000.0, 8.0, 40.0)
        assert more_entries > small

    def test_offline_nodes_probe_less(self):
        heavy, _ = _oracle(30, 30, 1.0, n=10)
        light, _ = _oracle(30, 30, 0.1, n=10)
        assert heavy.expected_maintenance_messages(
            1000.0, 8.0, 20.0
        ) < light.expected_maintenance_messages(1000.0, 8.0, 20.0)
