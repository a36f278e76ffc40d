"""Tests for the overlay graph abstraction and generators."""

from __future__ import annotations

import collections
import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import OverlayError
from repro.overlay import power_law
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
from repro.sim.rng import derive_rng


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
        message = {
            "self-loop": rf"^node {u} has a self-loop$",
            "too-large": rf"^node {u} has an out-of-range neighbor$",
            "negative": rf"^node {u} has an out-of-range neighbor$",
            "asymmetric": r"^undirected overlay is asymmetric$",
        }[defect]
        with pytest.raises(OverlayError, match=message):
            OverlayGraph(rows, directed=directed)
        with pytest.raises(OverlayError, match=message):
            OverlayGraph.from_csr(*_csr_of(rows), directed=directed)

    @pytest.mark.parametrize("defect", ["duplicate", "unsorted"])
    @pytest.mark.parametrize("directed", [False, True])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_a_row_out_of_order_is_rejected_by_from_csr(self, defect, directed, data):
        """One row with a neighbor repeated, or two neighbors swapped: the
        CSR entry point names that row's node, while the lists entry point
        normalises the same rows."""
        rows = [sorted(set(row)) for row in data.draw(neighbor_lists(directed))]
        shortest = 1 if defect == "duplicate" else 2
        long_enough = [u for u, row in enumerate(rows) if len(row) >= shortest]
        assume(long_enough)
        u = data.draw(st.sampled_from(long_enough))
        if defect == "duplicate":
            rows[u] = sorted(rows[u] + [data.draw(st.sampled_from(rows[u]))])
        else:
            i = data.draw(st.integers(0, len(rows[u]) - 2))
            rows[u][i], rows[u][i + 1] = rows[u][i + 1], rows[u][i]
        with pytest.raises(OverlayError, match=rf"^node {u} has unsorted or duplicate neighbors$"):
            OverlayGraph.from_csr(*_csr_of(rows), directed=directed)
        normalised = OverlayGraph(rows, directed=directed)
        assert list(normalised.neighbors(u)) == sorted(set(rows[u]))

    @pytest.mark.parametrize(
        "indptr, indices, message",
        [
            ([1, 1, 2], [1, 0], "indptr does not span the indices array"),  # starts at 1
            ([0, 1, 2], [1, 0, 1], "indptr does not span the indices array"),  # stops short
            ([0, 1, 3], [1, 0], "indptr does not span the indices array"),  # runs past
            ([0, 2, 1, 3], [1, 2, 0], "indptr offsets must be non-decreasing"),
            ([], [], r"indptr must be a 1-d array of n \+ 1 offsets"),
            ([[0, 0]], [], r"indptr must be a 1-d array of n \+ 1 offsets"),
        ],
    )
    @pytest.mark.parametrize("directed", [False, True])
    def test_bad_offsets_are_rejected_by_from_csr(self, indptr, indices, message, directed):
        with pytest.raises(OverlayError, match=f"^{message}$"):
            OverlayGraph.from_csr(
                np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
                directed=directed,
            )

    def test_complete_graph_is_validated_csr(self):
        g = complete_graph(5)
        assert g.neighbors(2) == (0, 1, 3, 4)
        assert g.num_edges == 10
        _assert_same_graph(g, OverlayGraph.from_edges(5, [(u, v) for u in range(5) for v in range(u)]))


def _csr_sha256(overlay: OverlayGraph) -> str:
    indptr, indices = overlay.adjacency_arrays()
    return hashlib.sha256(indptr.tobytes() + indices.tobytes()).hexdigest()


class TestBytesAtTheBenchmarkSize:
    """The generators' CSR bytes at the 4000 nodes the ``static`` benchmark
    builds, beyond the networkx oracle's sizes."""

    def test_the_random_100_overlay(self):
        assert _csr_sha256(fixed_degree_random_graph(4000, 100)) == (
            "b2fca286c84b6f9a0cbfb906700ee3b01696c8002e7a1273981c2f51e591a326"
        )

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "d6794f91624ffb9952f87a4ecd91c153f1c97b92b547c46bc973abeff0fb5642"),
            (1, "65dad8d3e0a260a7f3351cbb011ca4b12388276ccdc6fc93401d164946f86037"),
        ],
    )
    def test_the_power_law_overlay(self, seed, digest):
        assert _csr_sha256(power_law_graph(4000, seed=seed)) == digest


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

    def test_with_edges_refuses_a_directed_overlay(self):
        """Only the upper triangle of the old edges is read, which holds
        every edge of an undirected overlay and not of a directed one."""
        directed = OverlayGraph([[1], [0, 2], []], directed=True)
        with pytest.raises(OverlayError, match="undirected"):
            directed.with_edges([0], [2])
        grown = OverlayGraph([[1], [0, 2], [1]]).with_edges([0], [2])
        assert [grown.neighbors(u) for u in range(3)] == [(1, 2), (0, 2), (0, 1)]


def _reference_patch(overlay: OverlayGraph, min_degree: int, seed: object) -> OverlayGraph:
    """The set-per-node ``_patch_min_degree`` that the lazy one replaced,
    verbatim: the same draws and membership tests over every node's set."""
    rng = derive_rng(seed, "power-law-patch", overlay.n)
    adjacency = [set(overlay.neighbors(u)) for u in range(overlay.n)]
    deficient = [u for u in range(overlay.n) if len(adjacency[u]) < min_degree]
    for u in deficient:
        while len(adjacency[u]) < min_degree:
            v = rng.randrange(overlay.n)
            if v != u and v not in adjacency[u]:
                adjacency[u].add(v)
                adjacency[v].add(u)
    return OverlayGraph(adjacency, name=overlay.name)


def _reference_connect(overlay: OverlayGraph, seed: object) -> OverlayGraph:
    """The set-per-node ``connect_components`` that the CSR merge replaced,
    verbatim: the same components, draws and added edges."""
    components = overlay.components()
    if len(components) <= 1:
        return overlay
    rng = derive_rng(seed, "connect-components", overlay.n)
    adjacency = [set(overlay.neighbors(u)) for u in range(overlay.n)]
    giant = components[0]
    for component in components[1:]:
        u = rng.choice(component)
        v = rng.choice(giant)
        adjacency[u].add(v)
        adjacency[v].add(u)
    return OverlayGraph(adjacency, name=overlay.name)


class TestPowerLaw:
    @settings(max_examples=80)
    @given(
        n=st.integers(1, 12),
        pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20),
        seed=st.integers(0, 2**16),
    )
    def test_connecting_is_the_set_per_node_reference(self, n, pairs, seed):
        overlay = OverlayGraph.from_edges(n, [(u, v) for u, v in pairs if u != v and v < n > u])
        connected = connect_components(overlay, seed)
        _assert_same_graph(connected, _reference_connect(overlay, seed))
        assert connected.is_connected()
        assert (connected is overlay) == overlay.is_connected()

    @settings(max_examples=80)
    @given(
        n=st.integers(4, 12),
        pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20),
        min_degree=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_the_patch_is_the_set_per_node_reference(self, n, pairs, min_degree, seed):
        """Sparse graphs where most nodes fall short, so deficient nodes
        draw each other."""
        overlay = OverlayGraph.from_edges(n, [(u, v) for u, v in pairs if u != v and v < n > u])
        _assert_same_graph(
            power_law._patch_min_degree(overlay, min_degree, seed),
            _reference_patch(overlay, min_degree, seed),
        )

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
