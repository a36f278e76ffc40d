"""Tests for the overlay graph abstraction and generators."""

from __future__ import annotations

import collections

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import OverlayError
from repro.overlay.complete import complete_graph
from repro.overlay.graph import OverlayGraph
from repro.overlay.power_law import (
    estimated_exponent,
    power_law_graph,
    sample_power_law_degrees,
)
from repro.overlay.random_graphs import (
    connect_components,
    fixed_degree_random_graph,
    gnp_random_graph,
    random_regular_graph,
    ring_lattice_graph,
)


class TestOverlayGraph:
    def test_from_edges_symmetric(self):
        g = OverlayGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.neighbors(1) == (0, 2)
        assert g.degree(0) == 1
        assert g.num_edges == 3
        assert g.is_connected()

    def test_self_loop_rejected(self):
        with pytest.raises(OverlayError):
            OverlayGraph.from_edges(3, [(0, 0)])
        with pytest.raises(OverlayError):
            OverlayGraph([[0], [0]])

    def test_out_of_range_rejected(self):
        with pytest.raises(OverlayError):
            OverlayGraph.from_edges(3, [(0, 3)])

    def test_asymmetry_rejected_for_undirected(self):
        with pytest.raises(OverlayError):
            OverlayGraph([[1], []])

    def test_directed_allows_asymmetry(self):
        g = OverlayGraph([[1], []], directed=True)
        assert g.neighbors(0) == (1,)
        assert g.neighbors(1) == ()
        assert g.is_connected()  # weakly connected

    def test_components(self):
        g = OverlayGraph.from_edges(5, [(0, 1), (2, 3)])
        comps = g.components()
        assert sorted(len(c) for c in comps) == [1, 2, 2]
        assert not g.is_connected()


# ---------------------------------------------------------------------------
# One constructor path: per-node lists and CSR arrays build the same graph
# ---------------------------------------------------------------------------


@st.composite
def neighbor_lists(draw, directed):
    """Per-node neighbor lists, unsorted and with duplicates; symmetric
    unless ``directed``."""
    n = draw(st.integers(1, 12))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)
    )
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        if u != v:
            rows[u].append(v)
            if not directed:
                rows[v].append(u)
    return rows


def _csr_of(rows):
    """``(indptr, indices)`` of already-normalised rows, built by hand."""
    indptr = np.array([0] + [len(row) for row in rows], dtype=np.int64).cumsum()
    indices = np.array([v for row in rows for v in row], dtype=np.int64)
    return indptr, indices


def _weakly_connected(rows) -> bool:
    """Set-based BFS over the undirected view (the oracle for both
    ``is_connected`` implementations)."""
    undirected = [set(row) for row in rows]
    for u, row in enumerate(rows):
        for v in row:
            undirected[v].add(u)
    seen = {0}
    frontier = collections.deque([0])
    while frontier:
        for v in undirected[frontier.popleft()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == len(rows)


def _assert_same_graph(got: OverlayGraph, expected: OverlayGraph) -> None:
    for got_array, expected_array in zip(got.adjacency_arrays(), expected.adjacency_arrays()):
        assert got_array.dtype == expected_array.dtype == np.int64
        assert np.array_equal(got_array, expected_array)
    assert got.n == expected.n
    assert got.directed == expected.directed
    assert [got.neighbors(u) for u in range(got.n)] == [
        expected.neighbors(u) for u in range(expected.n)
    ]
    assert got.degrees == expected.degrees
    assert got.total_degrees == expected.total_degrees
    assert got.num_edges == expected.num_edges
    assert got.is_connected() == expected.is_connected()
    assert got.components() == expected.components()


class TestOneConstructorPath:
    @pytest.mark.parametrize("directed", [False, True])
    @settings(max_examples=150)
    @given(data=st.data())
    def test_lists_and_csr_build_the_same_graph(self, directed, data):
        rows = data.draw(neighbor_lists(directed))
        normalised = [sorted(set(row)) for row in rows]
        from_lists = OverlayGraph(rows, directed=directed)
        from_csr = OverlayGraph.from_csr(*_csr_of(normalised), directed=directed)
        _assert_same_graph(from_lists, from_csr)
        assert [list(from_lists.neighbors(u)) for u in range(len(rows))] == normalised
        assert from_lists.is_connected() == _weakly_connected(normalised)
        assert sorted(v for c in from_lists.components() for v in c) == list(range(len(rows)))

    @pytest.mark.parametrize(
        "defect, directed",
        [(defect, directed) for defect in ("self-loop", "too-large", "negative")
         for directed in (False, True)] + [("asymmetric", False)],
    )
    @settings(max_examples=40)
    @given(data=st.data())
    def test_bad_input_is_rejected_by_both_entry_points(self, defect, directed, data):
        rows = [sorted(set(row)) for row in data.draw(neighbor_lists(directed))]
        n = len(rows)
        u = data.draw(st.integers(0, n - 1))
        if defect == "self-loop":
            bad = u
        elif defect == "too-large":
            bad = n
        elif defect == "negative":
            bad = -1
        else:
            strangers = [v for v in range(n) if v != u and v not in rows[u]]
            assume(strangers)
            bad = data.draw(st.sampled_from(strangers))
        rows[u] = sorted(rows[u] + [bad])
        with pytest.raises(OverlayError):
            OverlayGraph(rows, directed=directed)
        with pytest.raises(OverlayError):
            OverlayGraph.from_csr(*_csr_of(rows), directed=directed)

    def test_complete_graph_is_validated_csr(self):
        g = complete_graph(5)
        assert g.neighbors(2) == (0, 1, 3, 4)
        assert g.num_edges == 10
        _assert_same_graph(g, OverlayGraph.from_edges(5, [(u, v) for u in range(5) for v in range(u)]))


class TestGenerators:
    def test_complete_graph(self):
        g = complete_graph(7)
        assert all(g.degree(i) == 6 for i in range(7))
        with pytest.raises(OverlayError):
            complete_graph(0)

    def test_random_regular_degrees_and_connectivity(self):
        g = random_regular_graph(40, 6, seed=1)
        assert all(g.degree(i) == 6 for i in range(40))
        assert g.is_connected()

    def test_random_regular_parity_validation(self):
        with pytest.raises(OverlayError):
            random_regular_graph(7, 3, seed=0)
        with pytest.raises(OverlayError):
            random_regular_graph(5, 5, seed=0)
        with pytest.raises(OverlayError, match="degree -2"):
            random_regular_graph(10, -2)  # was a networkx.NetworkXError

    def test_fixed_degree_random_is_regular(self):
        g = fixed_degree_random_graph(30, degree=4, seed=2)
        assert all(g.degree(i) == 4 for i in range(30))

    def test_gnp(self):
        g = gnp_random_graph(30, 0.2, seed=3)
        assert g.n == 30
        with pytest.raises(OverlayError):
            gnp_random_graph(10, 1.5)

    def test_ring_lattice_validation(self):
        with pytest.raises(OverlayError):
            ring_lattice_graph(2, k=1)
        with pytest.raises(OverlayError):
            ring_lattice_graph(10, k=5)

    def test_connect_components(self):
        g = OverlayGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        connected = connect_components(g, seed=1)
        assert connected.is_connected()
        # existing edges preserved
        assert 1 in connected.neighbors(0)


class TestPowerLaw:
    def test_minimum_degree_respected(self):
        g = power_law_graph(300, min_degree=2, seed=4)
        assert min(g.degree(i) for i in range(300)) >= 2

    def test_connected(self):
        g = power_law_graph(300, seed=5)
        assert g.is_connected()

    def test_heavy_tail(self):
        g = power_law_graph(800, seed=6)
        degrees = sorted((g.degree(i) for i in range(800)), reverse=True)
        # hubs exist: the top node has far more neighbors than the median
        assert degrees[0] >= 8 * degrees[len(degrees) // 2]
        exponent = estimated_exponent(g)
        assert 1.5 < exponent < 3.5

    def test_degree_sequence_sampler(self):
        degrees = sample_power_law_degrees(500, 2.2, 2, 60, seed=7)
        assert len(degrees) == 500
        assert sum(degrees) % 2 == 0
        assert min(degrees) >= 2
        assert max(degrees) <= 61  # +1 allowed by the parity bump

    def test_sampler_validation(self):
        with pytest.raises(OverlayError):
            sample_power_law_degrees(10, 0.9, 2, 10, seed=0)
        with pytest.raises(OverlayError):
            sample_power_law_degrees(10, 2.2, 0, 10, seed=0)
        with pytest.raises(OverlayError):
            sample_power_law_degrees(10, 2.2, 5, 4, seed=0)
        for exponent in (float("nan"), float("inf")):
            with pytest.raises(OverlayError, match="exponent"):
                power_law_graph(50, exponent=exponent)

    def test_small_n_rejected(self):
        with pytest.raises(OverlayError):
            power_law_graph(3)
