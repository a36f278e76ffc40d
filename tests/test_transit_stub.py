"""Tests for the GT-ITM-style transit-stub underlay."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from conftest import dijkstra_latencies
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.overlay.transit_stub import TransitStubParams, TransitStubUnderlay
from repro.sim.latency import UnderlayLatency


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

    @pytest.mark.parametrize("value", [-0.001, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        [
            "transit_transit_latency",
            "intra_transit_latency",
            "transit_stub_latency",
            "intra_stub_latency",
        ],
    )
    def test_a_link_latency_must_be_non_negative_and_finite(self, field, value):
        """A negative or nan latency made the relaxation loop forever, and
        an infinite one read as a disconnected underlay."""
        with pytest.raises(ConfigurationError, match=f"^{field} must be") as raised:
            TransitStubParams(stub_nodes_per_domain=3, **{field: value})
        assert "\n" not in str(raised.value)

    def test_transit_and_stub_partition(self):
        underlay = TransitStubUnderlay.for_size(200, seed=2)
        transit = set(underlay.transit_nodes)
        stub = set(underlay.stub_nodes)
        assert transit.isdisjoint(stub)
        assert len(transit) + len(stub) == underlay.num_nodes


def _all_pairs(underlay: TransitStubUnderlay) -> np.ndarray:
    """Every pair's latency, ``[source, target]``, through a model that
    attaches overlay node ``i`` to underlay node ``i``."""
    n = underlay.num_nodes
    return UnderlayLatency(underlay, range(n)).latency_block(0, n, n)


class TestLatencies:
    def test_connected_all_pairs_finite(self):
        underlay = TransitStubUnderlay.for_size(120, seed=3)
        matrix = _all_pairs(underlay)
        assert matrix.shape == (underlay.num_nodes, underlay.num_nodes)
        assert np.isfinite(matrix).all()
        assert (matrix[~(matrix == 0)] > 0).all()

    def test_symmetric(self):
        underlay = TransitStubUnderlay.for_size(120, seed=4)
        matrix = _all_pairs(underlay)
        assert matrix[3, 40] == pytest.approx(matrix[40, 3])

    def test_intra_stub_cheaper_than_cross_transit(self):
        params = TransitStubParams(stub_nodes_per_domain=10)
        underlay = TransitStubUnderlay(params, seed=5)
        stub_start = len(list(underlay.transit_nodes))
        # two nodes in the same stub domain vs nodes attached to different
        # transit domains (first and last stub domains)
        matrix = _all_pairs(underlay)
        same_stub = matrix[stub_start, stub_start + 1]
        far = matrix[stub_start, underlay.num_nodes - 1]
        assert same_stub < far

    def test_deterministic_given_seed(self):
        a = TransitStubUnderlay.for_size(100, seed=6)
        b = TransitStubUnderlay.for_size(100, seed=6)
        assert a.edge_list() == b.edge_list()

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 12: a link drawn more than once weighs the sum of its draws",
    )
    def test_every_link_has_one_weight_its_latency_never_exceeds(self):
        """A link's weight is one draw, its first, and no path between its
        ends is longer.  At 410 nodes, seed 1, twelve links are drawn twice
        and all twelve break it: link 15–17 reads 4.008 ms from draws of
        1.613 and 2.395 ms."""
        underlay = TransitStubUnderlay.for_size(400, seed=1)
        weights: dict[tuple[int, int], float] = {}
        for u, v, w in underlay.edge_list():
            weights.setdefault((min(u, v), max(u, v)), w)
        model = UnderlayLatency(underlay, range(underlay.num_nodes))
        assert [link for link, w in weights.items() if model.latency(*link) > w] == []


def _assert_bitwise_dijkstra(underlay: TransitStubUnderlay) -> None:
    """Every pair the model serves, as one block, is scipy's Dijkstra bit
    for bit, and so is every read (from every fourth source above 500
    nodes, to keep the 1,010-node cases near a quarter second)."""
    n = underlay.num_nodes
    want = dijkstra_latencies(underlay).view(np.uint64)
    model = UnderlayLatency(underlay, range(n))
    block = model.latency_block(0, n, n)
    assert block.dtype == np.float64 and block.flags.c_contiguous
    np.testing.assert_array_equal(block.view(np.uint64), want)
    latency = model.latency
    sources = range(0, n, 1 if n <= 500 else 4)
    reads = np.array([[latency(src, dst) for dst in range(n)] for src in sources])
    np.testing.assert_array_equal(reads.view(np.uint64), want[sources])


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

    def test_a_branch_sum_that_rounds_the_other_way_keeps_the_relaxed_column(self):
        """Without jitter every stub link weighs 2 ms, and in stub domain 5
        (nodes 70–81, gateway 70) links 70–72 and 74–77 are drawn twice and
        weigh 4 ms.  Node 77 is then 6 ms from the gateway both as 2 + 4
        ms (through 74) and as 4 + 2 ms (through 72), and from a source
        whose delay to the gateway is ``g`` the two sums differ in the last
        bit for some ``g``: whichever branch the tree took, it loses for
        some source, so node 77 reads its relaxed column, the minimum."""
        params = TransitStubParams(stub_nodes_per_domain=12, jitter=0.0)
        underlay = TransitStubUnderlay(params, seed=9)
        draws = Counter((min(u, v), max(u, v)) for u, v, _w in underlay.edge_list())
        assert draws[70, 72] == draws[74, 77] == 2
        assert underlay.delays().kept_columns == (77,)
        model = UnderlayLatency(underlay, range(underlay.num_nodes))
        split = 0
        for source in [*range(70), *range(82, underlay.num_nodes)]:
            g = model.latency(source, 70)
            through_74, through_72 = (g + 0.002) + 0.004, (g + 0.004) + 0.002
            assert model.latency(source, 77) == min(through_74, through_72)
            split += through_74 != through_72
        assert split > 0
        _assert_bitwise_dijkstra(underlay)

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
