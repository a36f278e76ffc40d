"""Validation tests for MPILConfig and PastryConfig."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import MPILConfig
from repro.errors import ConfigurationError
from repro.pastry.config import PastryConfig


class TestMPILConfig:
    def test_defaults_valid(self):
        config = MPILConfig()
        assert config.max_flows == 10
        assert config.per_flow_replicas == 5
        assert config.duplicate_suppression
        assert config.replica_bound == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_flows": 0},
            {"per_flow_replicas": 0},
            {"tie_break": "coin"},
            {"metric": "hamming"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MPILConfig(**kwargs)

    def test_replace(self):
        config = dataclasses.replace(MPILConfig(), max_flows=3)
        assert config.max_flows == 3
        assert config.per_flow_replicas == 5
        with pytest.raises(ConfigurationError):
            dataclasses.replace(MPILConfig(), max_flows=-1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            MPILConfig().max_flows = 7

    def test_ablation_options_accepted(self):
        for metric in ("common-digits", "prefix", "suffix"):
            assert MPILConfig(metric=metric).metric == metric
        for tie_break in ("random", "lowest-id"):
            assert MPILConfig(tie_break=tie_break).tie_break == tie_break


class TestPastryConfig:
    def test_paper_defaults(self):
        """The MSPastry configuration list from Section 6.2, verbatim, but
        for the routing-table maintenance period, which is not modelled."""
        config = PastryConfig()
        assert config.digit_bits == 4
        assert config.leaf_set_size == 8
        assert config.leafset_probe_period == 30.0
        assert config.routing_table_probe_period == 90.0
        assert config.probe_timeout == 3.0
        assert config.probe_retries == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"digit_bits": 0},
            {"leaf_set_size": 0},
            {"leaf_set_size": 7},
            {"probe_timeout": 0},
            {"probe_retries": -1},
            {"leafset_probe_period": 0},
            {"app_retransmissions": -1},
            {"app_retx_interval": 0},
            {"max_route_hops": 0},
            {"failure_eviction_rounds": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PastryConfig(**kwargs)

    def test_replace(self):
        config = dataclasses.replace(PastryConfig(), leaf_set_size=16)
        assert config.leaf_set_size == 16
        assert config.digit_bits == 4
