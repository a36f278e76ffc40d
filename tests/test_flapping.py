"""Tests for the flapping perturbation model."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.perturbation.flapping
from repro.errors import ConfigurationError
from repro.perturbation.flapping import FlappingConfig, FlappingSchedule
from repro.perturbation.scenario import (
    FLAP_PROBABILITIES,
    PERIOD_CONFIGS,
    PerturbationScenario,
    scenarios_for,
)
from repro.sim.rng import derive_rng


class TestFlappingConfig:
    def test_from_label(self):
        config = FlappingConfig.from_label("45:15", 0.5)
        assert config.idle_period == 45
        assert config.offline_period == 15
        assert config.cycle == 60
        assert config.label == "45:15"

    def test_label_round_trip(self):
        for label in ("1:1", "45:15", "30:30", "300:300"):
            assert FlappingConfig.from_label(label, 0.3).label == label

    def test_invalid_labels(self):
        with pytest.raises(ConfigurationError):
            FlappingConfig.from_label("45", 0.5)
        with pytest.raises(ConfigurationError):
            FlappingConfig.from_label("a:b", 0.5)

    @pytest.mark.parametrize("label", ["nan:30", "30:nan", "inf:30", "30:inf"])
    def test_non_finite_labels(self, label):
        # float() parses these; a nan period breaks the cycle arithmetic and
        # an infinite one never flaps
        with pytest.raises(ConfigurationError, match="must be finite"):
            FlappingConfig.from_label(label, 0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            FlappingConfig(0, 10, 0.5)
        with pytest.raises(ConfigurationError):
            FlappingConfig(10, 10, 1.5)

    def test_expected_offline_fraction(self):
        config = FlappingConfig(30, 30, 0.8)
        assert config.expected_offline_fraction == pytest.approx(0.4)


class TestFlappingSchedule:
    def test_zero_probability_always_online(self):
        schedule = FlappingSchedule(FlappingConfig(1, 1, 0.0), 10, seed=1)
        assert all(
            schedule.is_online(node, t)
            for node in range(10)
            for t in (0.0, 0.5, 1.5, 99.0)
        )

    def test_online_before_phase(self):
        schedule = FlappingSchedule(FlappingConfig(10, 10, 1.0), 5, seed=2)
        for node in range(5):
            assert schedule.is_online(node, schedule.phase(node) - 0.01)

    def test_p1_offline_during_offline_window(self):
        config = FlappingConfig(10, 10, 1.0)
        schedule = FlappingSchedule(config, 5, seed=3)
        for node in range(5):
            phase = schedule.phase(node)
            assert schedule.is_online(node, phase + 5.0)  # idle part
            assert not schedule.is_online(node, phase + 15.0)  # offline part
            assert schedule.is_online(node, phase + 25.0)  # next idle part

    def test_always_online_exemption(self):
        config = FlappingConfig(1, 1, 1.0)
        schedule = FlappingSchedule(config, 5, seed=4, always_online={2})
        assert all(schedule.is_online(2, t) for t in (0.0, 1.5, 3.5, 100.0))

    def test_phase_within_first_cycle(self):
        schedule = FlappingSchedule(FlappingConfig(30, 30, 0.5), 20, seed=5)
        for node in range(20):
            assert 0.0 <= schedule.phase(node) < 60.0

    def test_decisions_deterministic_and_order_independent(self):
        config = FlappingConfig(30, 30, 0.5)
        a = FlappingSchedule(config, 8, seed=6)
        b = FlappingSchedule(config, 8, seed=6)
        # query b in reverse order; results must match a's forward order
        times = [15.0 + 60.0 * k for k in range(20)]
        forward = [[a.is_online(n, t) for t in times] for n in range(8)]
        backward = [[b.is_online(n, t) for t in reversed(times)] for n in range(8)]
        assert forward == [list(reversed(row)) for row in backward]

    def test_goes_offline_negative_cycle(self):
        schedule = FlappingSchedule(FlappingConfig(1, 1, 1.0), 3, seed=7)
        assert schedule.goes_offline(0, -1) is False

    def test_statistical_offline_fraction(self):
        config = FlappingConfig(30, 30, 0.6)
        schedule = FlappingSchedule(config, 300, seed=8)
        # sample far beyond all phases so every node is flapping
        sample_times = [500.0 + 7.3 * k for k in range(40)]
        online = sum(
            schedule.is_online(node, t) for node in range(300) for t in sample_times
        )
        fraction = online / (300 * len(sample_times))
        expected = 1.0 - config.expected_offline_fraction
        assert abs(fraction - expected) < 0.05


class TestDecisionStreamsOnFirstUse:
    """A node's ``"flap-decisions"`` stream exists once a cycle of that node
    has to be drawn, and not before; the draws are the eager ones."""

    @staticmethod
    def _derived(monkeypatch):
        derived: list[tuple] = []

        def recording(seed, *labels):
            derived.append(labels)
            return derive_rng(seed, *labels)

        monkeypatch.setattr(repro.perturbation.flapping, "derive_rng", recording)
        return derived

    def test_shuffled_queries_read_the_eager_streams_draws(self):
        config = FlappingConfig(30, 30, 0.5)
        schedule = FlappingSchedule(config, 8, seed=(11, "flap"))
        queries = [(node, k) for node in range(8) for k in range(25)]
        random.Random(0).shuffle(queries)  # test-local order, not a library stream
        got = {query: schedule.goes_offline(*query) for query in queries}
        for node in range(8):
            stream = derive_rng((11, "flap"), "flap-decisions", node, "30:30")
            for k in range(25):
                assert got[node, k] == (stream.random() < 0.5), (node, k)

    def test_construction_derives_the_phase_stream_only(self, monkeypatch):
        derived = self._derived(monkeypatch)
        FlappingSchedule(FlappingConfig(30, 30, 1.0), 50, seed=12)
        assert derived == [("flap-phases", 50, "30:30")]

    def test_idle_part_queries_derive_no_decision_stream(self, monkeypatch):
        derived = self._derived(monkeypatch)
        schedule = FlappingSchedule(FlappingConfig(30, 30, 1.0), 6, seed=13)
        for node in range(6):
            phase = schedule.phase(node)
            assert schedule.is_online(node, phase - 1.0)  # before the first period
            assert all(schedule.is_online(node, phase + 60.0 * k + 29.0) for k in range(5))
        assert len(derived) == 1
        assert not schedule.is_online(2, schedule.phase(2) + 31.0)  # an offline part
        assert not schedule.is_online(2, schedule.phase(2) + 91.0)  # same stream again
        assert derived[1:] == [("flap-decisions", 2, "30:30")]

    def test_the_label_is_formatted_once_per_schedule(self, monkeypatch):
        """Each node's stream derives under the same label, formatted at
        construction and not again per derive."""
        derived = self._derived(monkeypatch)
        formatted = []
        label = FlappingConfig.label

        def counted(config):
            formatted.append(config)
            return label.fget(config)

        monkeypatch.setattr(FlappingConfig, "label", property(counted))
        schedule = FlappingSchedule(FlappingConfig(30, 30, 1.0), 6, seed=14)
        for node in range(6):
            assert schedule.goes_offline(node, 3)
        assert len(formatted) == 1
        assert [labels[-1] for labels in derived] == ["30:30"] * 7


class TestScenarios:
    def test_period_configs_match_paper(self):
        assert PERIOD_CONFIGS["fig1"] == ("1:1", "45:15", "30:30", "300:300")
        assert PERIOD_CONFIGS["fig11"] == ("1:1", "30:30", "300:300")
        assert FLAP_PROBABILITIES == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def test_scenarios_for(self):
        scenarios = scenarios_for("fig11", probabilities=(0.5, 1.0))
        assert len(scenarios) == 6
        first = scenarios[0]
        config = FlappingConfig.from_label(first.period_label, first.probability)
        assert FlappingSchedule(config, 10, seed=0).num_nodes == 10

    def test_unknown_figure(self):
        with pytest.raises(ConfigurationError):
            scenarios_for("fig99")

    def test_scenario_config(self):
        scenario = PerturbationScenario("30:30", 0.4)
        assert FlappingConfig.from_label(scenario.period_label, scenario.probability).cycle == 60.0


@given(
    idle=st.floats(0.5, 100, allow_nan=False),
    offline=st.floats(0.5, 100, allow_nan=False),
    probability=st.floats(0, 1),
    node=st.integers(0, 9),
    t=st.floats(0, 2000),
)
def test_is_online_is_pure(idle, offline, probability, node, t):
    config = FlappingConfig(idle, offline, probability)
    schedule = FlappingSchedule(config, 10, seed=42)
    assert schedule.is_online(node, t) == schedule.is_online(node, t)
