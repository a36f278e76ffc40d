"""Tests for the GT-ITM-style transit-stub underlay."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _dijkstra(underlay: TransitStubUnderlay) -> np.ndarray:
    """scipy's Dijkstra over the draw list as a sparse matrix, whose build
    sums a link drawn more than once in draw order."""
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rows, cols, vals = [], [], []
    for u, v, w in underlay.edge_list():
        rows.extend((u, v))
        cols.extend((v, u))
        vals.extend((w, w))
    n = underlay.num_nodes
    graph = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return csgraph.shortest_path(graph, method="D", directed=False)


def _assert_bitwise_dijkstra(underlay: TransitStubUnderlay) -> None:
    got = underlay.latency_matrix()
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert not got.flags.writeable
    want = _dijkstra(underlay)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestShortestPathsAreDijkstras:
    """The structured relaxation in numpy equals scipy's Dijkstra bit for
    bit: 10 and 50 nodes take the small and one-node-stub shapes, 90 is
    ``smoke``, 410 ``default`` and 1,010 ``paper``."""

    @pytest.mark.parametrize("approx_nodes", [10, 50, 90, 410, 1010])
    @pytest.mark.parametrize("seed", range(10))
    def test_for_size(self, approx_nodes, seed):
        _assert_bitwise_dijkstra(TransitStubUnderlay.for_size(approx_nodes, seed=seed))

    @pytest.mark.parametrize("approx_nodes, seed", [(410, 7), (410, 24), (410, 30), (1010, 35)])
    def test_a_link_drawn_three_times_sums_in_draw_order(self, approx_nodes, seed):
        """On these seeds ``(a + b) + c`` and ``a + (b + c)`` of a thrice
        drawn link differ, and the difference reaches the matrix."""
        underlay = TransitStubUnderlay.for_size(approx_nodes, seed=seed)
        draws = Counter((min(u, v), max(u, v)) for u, v, _w in underlay.edge_list())
        assert max(draws.values()) == 3
        _assert_bitwise_dijkstra(underlay)

    @pytest.mark.parametrize(
        "shape",
        [
            {"transit_nodes_per_domain": 1},
            {"transit_nodes_per_domain": 2},
            {"transit_nodes_per_domain": 3},  # a ring without a chord
            {"transit_nodes_per_domain": 4},
            {"stub_nodes_per_domain": 1},
            {"transit_domains": 1},
            {"transit_domains": 3, "stub_domains_per_transit": 1},
        ],
    )
    def test_hand_built_shapes(self, shape):
        params = TransitStubParams(**{"stub_nodes_per_domain": 6, **shape})
        _assert_bitwise_dijkstra(TransitStubUnderlay(params, seed=3))

    @settings(max_examples=40, deadline=None)
    @given(
        transit_domains=st.integers(1, 3),
        transit_nodes_per_domain=st.integers(1, 6),
        stub_domains_per_transit=st.integers(1, 3),
        stub_nodes_per_domain=st.integers(1, 16),
        jitter=st.floats(0.0, 0.9),
        seed=st.integers(0, 10_000),
    )
    def test_drawn_small_params(self, seed, **shape):
        _assert_bitwise_dijkstra(TransitStubUnderlay(TransitStubParams(**shape), seed=seed))


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
