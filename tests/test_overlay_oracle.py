"""The overlay generators against networkx, array for array.

``repro.overlay`` ports networkx 3.6's ``random_regular_graph``,
``configuration_model`` and ``gnp_random_graph`` draw for draw, so every
overlay keeps the bytes it had when networkx built it, and with them every
golden and ``bench/expected.json`` digest.  networkx is a development
dependency only as this oracle: each test builds the graph with it, converts
it as the library used to, and compares the CSR arrays.
"""

from __future__ import annotations

import random
import unittest.mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import OverlayError
from repro.overlay import power_law, random_graphs
from repro.overlay.graph import OverlayGraph
from repro.overlay.power_law import power_law_graph
from repro.overlay.random_graphs import gnp_random_graph, random_regular_graph
from repro.sim.rng import derive_seed


def _converted(graph: nx.Graph, name: str) -> OverlayGraph:
    """What ``OverlayGraph.from_networkx(graph, order=list(graph.nodes))``
    returned: node ``list(graph.nodes)[i]`` becomes overlay node ``i``."""
    label = {node: i for i, node in enumerate(graph.nodes)}
    return OverlayGraph([[label[v] for v in graph.adj[u]] for u in graph.nodes], name=name)


def _networkx_seed(seed: object, *labels: object) -> int:
    return derive_seed(seed, *labels) % (2**32)


def _assert_same_arrays(got: OverlayGraph, expected: OverlayGraph) -> None:
    assert got.name == expected.name
    assert got.n == expected.n
    for got_array, expected_array in zip(got.adjacency_arrays(), expected.adjacency_arrays()):
        assert got_array.dtype == expected_array.dtype == np.int64
        assert np.array_equal(got_array, expected_array)


def _networkx_regular(n: int, degree: int, seed: int, max_attempts: int = 20):
    """The library's former ``random_regular_graph``: networkx samples,
    converted, until one is connected (``None`` if none is)."""
    for attempt in range(max_attempts):
        graph = nx.random_regular_graph(
            degree, n, seed=_networkx_seed(seed, "random-regular", n, degree, attempt)
        )
        overlay = _converted(graph, f"random-regular-{degree}")
        if overlay.is_connected():
            return overlay
    return None


@st.composite
def regular_sizes(draw, max_n: int):
    """``(n, degree)`` with ``0 <= degree < n`` and ``n * degree`` even;
    half the draws are dense (``degree >= n - 5``), where samples start
    over most often."""
    n = draw(st.integers(1, max_n))
    low = max(0, n - 4) if draw(st.booleans()) else 0
    degree = draw(st.integers(low, n - 1))
    if (n * degree) % 2:
        degree -= 1
    return n, degree


def _coded(pairs, n: int) -> np.ndarray:
    """The pairing model's edge codes of ``pairs``: ``u * n + v``, ``u < v``,
    as its sorted int64 array."""
    return np.array(sorted({min(u, v) * n + max(u, v) for u, v in pairs}), dtype=np.int64)


def _decoded(codes: np.ndarray, n: int) -> list[tuple[int, int]]:
    """The ``(u, v)`` pairs of the pairing model's edge codes."""
    return [divmod(code, n) for code in codes.tolist()]


class TestStartOver:
    """First in the file: a wrong start-over check can make the pairing
    model loop forever, so it is pinned here before any sample is drawn."""

    def test_the_check_keeps_networkx_rebinding_swap(self):
        """networkx's ``_suitable`` swaps ``s1`` and ``s2`` inside its inner
        loop and goes on from the smaller node.  With 0, 1, 2 unpaired in
        that order and 0 adjacent to both others, it never looks at the free
        pair (1, 2), so the sample starts over."""
        can_pair = random_graphs._can_pair
        for n in (6, 7, 1000):
            assert not can_pair(_coded({(0, 1), (0, 2)}, n), {0: 1, 1: 1, 2: 1}, n)
            assert can_pair(_coded({(0, 1)}, n), {0: 1, 1: 1, 2: 1}, n)
            assert not can_pair(_coded({(3, 5)}, n), {5: 1, 3: 1}, n)
            assert not can_pair(_coded(set(), n), {4: 2}, n)

    def test_an_explicit_example_starts_over(self):
        """The oracle reaches the start-over path: on ``(9, 6)``, seed 0
        (an explicit example below), a round ends with no legal pair left."""
        verdicts = []
        real = random_graphs._can_pair

        def recording(edges, unpaired, n):
            verdicts.append(real(edges, unpaired, n))
            return verdicts[-1]

        with unittest.mock.patch.object(random_graphs, "_can_pair", recording):
            random_graphs._pairing_model(9, 6, random.Random(0))
        assert False in verdicts


class TestRandomRegular:
    @settings(max_examples=60, deadline=None)
    @given(size=regular_sizes(max_n=40), seed=st.integers(0, 2**16))
    @example(size=(10, 3), seed=2)
    @example(size=(1, 0), seed=0)
    @example(size=(6, 0), seed=0)
    def test_generator_matches_networkx(self, size, seed):
        n, degree = size
        expected = _networkx_regular(n, degree, seed)
        if expected is None:
            with pytest.raises(OverlayError, match="failed to generate"):
                random_regular_graph(n, degree, seed=seed)
        else:
            _assert_same_arrays(random_regular_graph(n, degree, seed=seed), expected)

    @settings(max_examples=150, deadline=None)
    @given(size=regular_sizes(max_n=14), seed=st.integers(0, 2**32 - 1))
    @example(size=(9, 6), seed=0)
    def test_pairing_model_matches_networkx(self, size, seed):
        """Below the connectivity retry: every sample, connected or not."""
        n, degree = size
        graph = nx.random_regular_graph(degree, n, seed=seed)
        codes = random_graphs._pairing_model(n, degree, random.Random(seed))
        assert codes.dtype == np.int64
        assert (codes[1:] > codes[:-1]).all()
        edges = _decoded(codes, n)
        assert all(0 <= u < v < n for u, v in edges)
        assert len(edges) == n * degree // 2
        _assert_same_arrays(
            OverlayGraph.from_edges(n, edges, name="sample"), _converted(graph, "sample")
        )

    @pytest.mark.parametrize("n, degree", [(400, 10), (1000, 30)])
    def test_large_graphs_match(self, n, degree):
        _assert_same_arrays(
            random_regular_graph(n, degree, seed=3), _networkx_regular(n, degree, seed=3)
        )


@st.composite
def degree_sequences(draw):
    degrees = draw(st.lists(st.integers(0, 12), max_size=30))
    if sum(degrees) % 2:
        degrees.append(1)
    return degrees


def _networkx_configuration(degrees, seed) -> nx.Graph:
    """The library's former simplification: ``nx.Graph`` collapses the
    multigraph's parallel edges, then the self-loops are removed."""
    graph = nx.Graph(nx.configuration_model(degrees, seed=seed))
    graph.remove_edges_from(list(nx.selfloop_edges(graph)))
    return graph


class TestConfigurationModel:
    @settings(max_examples=150, deadline=None)
    @given(degrees=degree_sequences(), seed=st.integers(0, 2**32 - 1))
    @example(degrees=[], seed=0)
    @example(degrees=[2], seed=0)
    def test_matches_networkx(self, degrees, seed):
        edges = power_law._configuration_model(degrees, random.Random(seed))
        _assert_same_arrays(
            OverlayGraph.from_edges(len(degrees), edges, name="sample"),
            _converted(_networkx_configuration(degrees, seed), "sample"),
        )

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 300), seed=st.integers(0, 2**16))
    @example(n=4000, seed=1)
    def test_power_law_graph_matches_networkx(self, n, seed):
        """The whole generator, with only its configuration model swapped
        for networkx's."""
        def networkx_edges(degrees, rng):
            return list(_networkx_configuration(degrees, rng).edges)

        with unittest.mock.patch.object(power_law, "_configuration_model", networkx_edges):
            expected = power_law_graph(n, seed=seed)
        _assert_same_arrays(power_law_graph(n, seed=seed), expected)


class TestGnp:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(0, 40),
        p=st.sampled_from([0, 1, 0.0, 1.0]) | st.floats(0, 1),
        seed=st.integers(0, 2**16),
    )
    def test_matches_networkx(self, n, p, seed):
        graph = nx.gnp_random_graph(n, p, seed=_networkx_seed(seed, "gnp", n, p))
        _assert_same_arrays(gnp_random_graph(n, p, seed=seed), _converted(graph, f"gnp-{p}"))
