"""Property-based invariants for the core metrics and every availability
process.

Two invariant families back the scenario engine:

- *metric geometry*: the routing metrics are genuine (ultra)metrics —
  common-digits distance (Hamming on digit strings) satisfies the triangle
  inequality, prefix/suffix match lengths are ultrametric, and all are
  symmetric;
- *schedule consistency*: for every
  :class:`repro.perturbation.base.AvailabilityProcess` implementation, the
  point view (``is_online``) and the interval view (``offline_intervals``)
  must agree — a schedule may never report a node online during one of its
  own offline windows, nor offline outside of them.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.identifiers import IdSpace
from repro.perturbation.adversarial import (
    AdversarialRemoval,
    AdversarialRemovalConfig,
)
from repro.perturbation.base import AvailabilityProcess, merge_intervals
from repro.perturbation.churn import ChurnConfig, ChurnSchedule
from repro.perturbation.flapping import FlappingConfig, FlappingSchedule
from repro.perturbation.outage import RegionalOutage, RegionalOutageConfig
from repro.perturbation.storms import JoinStormConfig, JoinStormSchedule
from repro.perturbation.timeline import ScenarioTimeline
from repro.perturbation.waves import ChurnWaveConfig, ChurnWaveSchedule

SPACE = IdSpace(bits=16, digit_bits=4)
ids = st.integers(0, SPACE.max_value)


# -- metric geometry ----------------------------------------------------------


@given(ids, ids)
def test_common_digits_symmetry(x, y):
    a, b = SPACE.identifier(x), SPACE.identifier(y)
    assert a.common_digits(b) == b.common_digits(a)


@given(ids, ids, ids)
def test_common_digits_distance_triangle_inequality(x, y, z):
    """M - common_digits is Hamming distance on digit strings: a metric."""
    a, b, c = (SPACE.identifier(v) for v in (x, y, z))
    m = SPACE.num_digits

    def dist(u, v):
        return m - u.common_digits(v)

    assert dist(a, c) <= dist(a, b) + dist(b, c)
    assert dist(a, a) == 0


@given(ids, ids, ids)
def test_prefix_match_is_ultrametric(x, y, z):
    """Shared-prefix length: match(a, c) >= min(match(a, b), match(b, c))."""
    a, b, c = (SPACE.identifier(v) for v in (x, y, z))
    assert a.prefix_match_len(b) == b.prefix_match_len(a)
    assert a.prefix_match_len(c) >= min(a.prefix_match_len(b), b.prefix_match_len(c))


@given(ids, ids, ids)
def test_suffix_match_is_ultrametric(x, y, z):
    a, b, c = (SPACE.identifier(v) for v in (x, y, z))
    assert a.suffix_match_len(b) == b.suffix_match_len(a)
    assert a.suffix_match_len(c) >= min(a.suffix_match_len(b), b.suffix_match_len(c))


@given(ids, ids, ids)
def test_circular_distance_is_a_metric(x, y, z):
    a, b, c = (SPACE.identifier(v) for v in (x, y, z))
    assert a.circular_distance(b) == b.circular_distance(a)
    assert a.circular_distance(a) == 0
    assert a.circular_distance(c) <= a.circular_distance(b) + b.circular_distance(c)
    assert a.circular_distance(b) <= SPACE.size // 2


# -- schedule consistency -----------------------------------------------------

HORIZON = 400.0

seeds = st.integers(0, 2**31 - 1)
nodes_counts = st.integers(2, 8)
times = st.floats(0.0, HORIZON, allow_nan=False, allow_infinity=False)


def build_flapping(seed: int, num_nodes: int) -> FlappingSchedule:
    config = FlappingConfig(
        idle_period=7.0, offline_period=13.0, probability=0.7
    )
    return FlappingSchedule(config, num_nodes, seed=seed, always_online={0})


def build_churn(seed: int, num_nodes: int) -> ChurnSchedule:
    config = ChurnConfig(mean_session=25.0, mean_downtime=15.0)
    return ChurnSchedule(config, num_nodes, seed=seed, always_online={0})


def build_wave(seed: int, num_nodes: int) -> ChurnWaveSchedule:
    config = ChurnWaveConfig(
        mean_session=25.0,
        mean_downtime=15.0,
        wave_period=80.0,
        wave_duration=20.0,
        intensity=4.0,
    )
    return ChurnWaveSchedule(config, num_nodes, seed=seed, always_online={0})


def build_outage(seed: int, num_nodes: int) -> RegionalOutage:
    regions = [node % 2 for node in range(num_nodes)]
    config = RegionalOutageConfig(start=50.0, duration=120.0, severity=0.5)
    return RegionalOutage(regions, config, seed=seed, always_online={0})


def build_storm(seed: int, num_nodes: int) -> JoinStormSchedule:
    config = JoinStormConfig(arrival_time=90.0, late_fraction=0.6)
    return JoinStormSchedule(config, num_nodes, seed=seed, always_online={0})


def build_adversarial(seed: int, num_nodes: int) -> AdversarialRemoval:
    degrees = [(node * 7) % num_nodes for node in range(num_nodes)]
    config = AdversarialRemovalConfig(fraction=0.5, start=60.0, targeting="degree")
    return AdversarialRemoval(degrees, config, seed=seed, always_online={0})


def build_timeline(seed: int, num_nodes: int) -> ScenarioTimeline:
    return ScenarioTimeline(
        [build_flapping(seed, num_nodes), build_outage(seed, num_nodes)]
    )


ALL_BUILDERS = (
    build_flapping,
    build_churn,
    build_wave,
    build_outage,
    build_storm,
    build_adversarial,
    build_timeline,
)


def in_offline_window(intervals, time: float) -> bool:
    return any(start <= time < end for start, end in intervals)


@given(st.sampled_from(ALL_BUILDERS), seeds, nodes_counts, st.lists(times, min_size=1, max_size=8))
def test_point_and_interval_views_agree(builder, seed, num_nodes, sample_times):
    """A node is offline at t iff t falls in one of its reported windows."""
    process = builder(seed, num_nodes)
    assert isinstance(process, AvailabilityProcess)
    for node in range(num_nodes):
        intervals = process.offline_intervals(node, HORIZON)
        # windows are non-empty, ordered, and disjoint (inf only ever last)
        for start, end in intervals:
            assert start < end
        for (_s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2
        for t in sample_times:
            assert process.is_online(node, t) == (
                not in_offline_window(intervals, t)
            ), (builder.__name__, node, t)


@given(st.sampled_from(ALL_BUILDERS), seeds, nodes_counts)
def test_always_online_nodes_report_no_windows(builder, seed, num_nodes):
    process = builder(seed, num_nodes)
    for node in process.always_online:
        assert process.offline_intervals(node, HORIZON) == []
        assert process.is_online(node, 0.0)
        assert process.is_online(node, HORIZON / 2)


@given(st.sampled_from(ALL_BUILDERS), seeds, nodes_counts)
def test_schedules_are_deterministic(builder, seed, num_nodes):
    """Two instances from the same seed agree on every window."""
    a, b = builder(seed, num_nodes), builder(seed, num_nodes)
    for node in range(num_nodes):
        assert a.offline_intervals(node, HORIZON) == b.offline_intervals(node, HORIZON)


@given(
    st.lists(
        st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0.001, 50, allow_nan=False)),
        max_size=10,
    )
)
def test_merge_intervals_properties(raw):
    intervals = [(start, start + width) for start, width in raw]
    merged = merge_intervals(intervals)
    # sorted, disjoint, non-touching
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        assert e1 < s2
    # coverage is preserved both ways at interval endpoints and midpoints
    def covered(windows, t):
        return any(s <= t < e for s, e in windows)

    for start, end in intervals:
        for t in (start, (start + end) / 2):
            assert covered(merged, t)
    for start, end in merged:
        assert covered(intervals, start)
