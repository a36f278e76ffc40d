"""Tests for the continuous-time churn availability model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.perturbation.churn import ChurnConfig, ChurnSchedule


class TestChurnConfig:
    def test_offline_fraction(self):
        config = ChurnConfig(mean_session=300, mean_downtime=100)
        assert config.expected_offline_fraction == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChurnConfig(mean_session=0, mean_downtime=10)
        with pytest.raises(ConfigurationError):
            ChurnConfig(mean_session=10, mean_downtime=-1)

    def test_label(self):
        assert "300" in ChurnConfig(300, 300).label


class TestChurnSchedule:
    def test_nodes_start_online(self):
        schedule = ChurnSchedule(ChurnConfig(100, 100), 10, seed=1)
        assert all(schedule.is_online(node, 0.0) for node in range(10))

    def test_deterministic_and_order_independent(self):
        config = ChurnConfig(60, 60)
        a = ChurnSchedule(config, 6, seed=2)
        b = ChurnSchedule(config, 6, seed=2)
        times = [3.0 + 17.0 * k for k in range(30)]
        forward = [[a.is_online(n, t) for t in times] for n in range(6)]
        backward = [[b.is_online(n, t) for t in reversed(times)] for n in range(6)]
        assert forward == [list(reversed(row)) for row in backward]

    def test_state_flips_at_boundaries(self):
        schedule = ChurnSchedule(ChurnConfig(50, 50), 3, seed=3)
        boundaries = schedule.session_boundaries(0, 1000.0)
        assert boundaries == sorted(boundaries)
        for i, boundary in enumerate(boundaries):
            before = schedule.is_online(0, boundary - 1e-6)
            after = schedule.is_online(0, boundary + 1e-6)
            assert before == (i % 2 == 0)
            assert after == (i % 2 == 1)

    def test_long_run_availability(self):
        config = ChurnConfig(mean_session=120, mean_downtime=40)  # 75% up
        schedule = ChurnSchedule(config, 200, seed=4)
        samples = [
            schedule.is_online(node, 50.0 + 37.0 * k)
            for node in range(200)
            for k in range(25)
        ]
        fraction = sum(samples) / len(samples)
        assert fraction == pytest.approx(
            1.0 - config.expected_offline_fraction, abs=0.05
        )

    def test_always_online_exemption(self):
        schedule = ChurnSchedule(ChurnConfig(1, 1000), 5, seed=5, always_online={2})
        assert all(schedule.is_online(2, t) for t in (0.0, 100.0, 10_000.0))

    def test_negative_time_online(self):
        schedule = ChurnSchedule(ChurnConfig(10, 10), 3, seed=6)
        assert schedule.is_online(0, -5.0)

    def test_num_nodes_validated(self):
        with pytest.raises(ConfigurationError):
            ChurnSchedule(ChurnConfig(10, 10), 0)

    def test_faster_churn_means_more_transitions(self):
        slow = ChurnSchedule(ChurnConfig(600, 600), 1, seed=8)
        fast = ChurnSchedule(ChurnConfig(30, 30), 1, seed=8)
        horizon = 10_000.0
        assert len(fast.session_boundaries(0, horizon)) > len(
            slow.session_boundaries(0, horizon)
        )
