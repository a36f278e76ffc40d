"""Tests for the GT-ITM-style transit-stub underlay."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.overlay.transit_stub import TransitStubParams, TransitStubUnderlay


class TestStructure:
    def test_node_count_matches_params(self):
        params = TransitStubParams(
            transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit=2,
            stub_nodes_per_domain=5,
        )
        underlay = TransitStubUnderlay(params, seed=0)
        assert underlay.num_nodes == params.total_nodes == 6 + 6 * 2 * 5

    def test_for_size_close_to_target(self):
        underlay = TransitStubUnderlay.for_size(1000, seed=1)
        assert 800 <= underlay.num_nodes <= 1200

    def test_for_size_small(self):
        underlay = TransitStubUnderlay.for_size(30, seed=1)
        assert underlay.num_nodes >= 10

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            TransitStubParams(transit_domains=0)
        with pytest.raises(ConfigurationError):
            TransitStubParams(jitter=1.5)

    def test_transit_and_stub_partition(self):
        underlay = TransitStubUnderlay.for_size(200, seed=2)
        transit = set(underlay.transit_nodes)
        stub = set(underlay.stub_nodes)
        assert transit.isdisjoint(stub)
        assert len(transit) + len(stub) == underlay.num_nodes


class TestLatencies:
    def test_connected_all_pairs_finite(self):
        underlay = TransitStubUnderlay.for_size(120, seed=3)
        matrix = underlay.latency_matrix()
        assert matrix.shape == (underlay.num_nodes, underlay.num_nodes)
        assert (matrix[~(matrix == 0)] > 0).all()

    def test_symmetric(self):
        underlay = TransitStubUnderlay.for_size(120, seed=4)
        matrix = underlay.latency_matrix()
        assert matrix[3, 40] == pytest.approx(matrix[40, 3])

    def test_intra_stub_cheaper_than_cross_transit(self):
        params = TransitStubParams(stub_nodes_per_domain=10)
        underlay = TransitStubUnderlay(params, seed=5)
        stub_start = len(list(underlay.transit_nodes))
        # two nodes in the same stub domain vs nodes attached to different
        # transit domains (first and last stub domains)
        matrix = underlay.latency_matrix()
        same_stub = matrix[stub_start, stub_start + 1]
        far = matrix[stub_start, underlay.num_nodes - 1]
        assert same_stub < far

    def test_deterministic_given_seed(self):
        a = TransitStubUnderlay.for_size(100, seed=6)
        b = TransitStubUnderlay.for_size(100, seed=6)
        assert a.edge_list() == b.edge_list()


class TestAttachment:
    def test_attachment_uses_stub_nodes(self):
        underlay = TransitStubUnderlay.for_size(150, seed=7)
        attachment = underlay.random_attachment(50, seed=8)
        stub = set(underlay.stub_nodes)
        assert len(attachment) == 50
        assert all(a in stub for a in attachment)
        assert len(set(attachment)) == 50  # distinct when stubs suffice

    def test_oversubscribed_attachment_allows_repeats(self):
        underlay = TransitStubUnderlay.for_size(30, seed=9)
        attachment = underlay.random_attachment(
            len(list(underlay.stub_nodes)) + 10, seed=10
        )
        assert len(attachment) == len(list(underlay.stub_nodes)) + 10
