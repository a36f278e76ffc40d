"""Random overlay generators.

The paper's "random graphs" give every node exactly 100 neighbors — i.e.
random regular graphs ("In these random graphs, each node has 100
neighbors, equally").  :func:`fixed_degree_random_graph` is the exported
name for that family; :func:`random_regular_graph` is the underlying
generator.  A G(n, p) generator and a ring lattice are included for tests
and examples.
"""

from __future__ import annotations

import itertools
import random

from repro.errors import OverlayError
from repro.overlay.graph import OverlayGraph
from repro.sim.rng import derive_rng, derive_rng32


def random_regular_graph(
    n: int, degree: int, seed: object = 0, max_attempts: int = 20
) -> OverlayGraph:
    """A connected random d-regular graph on ``n`` nodes.

    Samples the pairing model (:func:`_pairing_model`) and retries (with
    derived seeds) until the sample is connected — disconnected samples are
    rare for d >= 3 but possible.
    """
    if not 0 <= degree < n:
        raise OverlayError(f"degree {degree} must be in [0, n) (n={n})")
    if (n * degree) % 2 != 0:
        raise OverlayError(f"n*degree must be even, got n={n}, degree={degree}")
    for attempt in range(max_attempts):
        edges = _pairing_model(n, degree, derive_rng32(seed, "random-regular", n, degree, attempt))
        overlay = OverlayGraph.from_edges(n, edges, name=f"random-regular-{degree}")
        if overlay.is_connected():
            return overlay
    raise OverlayError(
        f"failed to generate a connected {degree}-regular graph on {n} nodes "
        f"after {max_attempts} attempts"
    )


def _pairing_model(n: int, degree: int, rng: random.Random) -> set[tuple[int, int]]:
    """The edges of one simple d-regular sample (Steger and Wormald): pair
    shuffled stubs off, re-shuffle those that would make a self-loop or a
    parallel edge, start over when none can pair.  Draw for draw the reference
    ``tests/test_overlay_oracle.py`` pins it to, so overlays keep their bytes."""
    while True:
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * degree
        while stubs:
            unpaired: dict[int, int] = {}
            rng.shuffle(stubs)
            pairs = iter(stubs)
            for s1, s2 in zip(pairs, pairs):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    unpaired[s1] = unpaired.get(s1, 0) + 1
                    unpaired[s2] = unpaired.get(s2, 0) + 1
            if unpaired and not _can_pair(edges, unpaired):
                break
            stubs = [node for node, count in unpaired.items() for _ in range(count)]
        else:
            return edges


def _can_pair(edges: set[tuple[int, int]], unpaired: dict[int, int]) -> bool:
    """Whether the next round can still pair ``unpaired`` (not empty): the
    reference's check as written, whose swap rebinds ``s1`` and so skips
    some pairs; which pairs it checks decides when a sample starts over."""
    for s1 in unpaired:
        for s2 in unpaired:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def fixed_degree_random_graph(n: int, degree: int = 100, seed: object = 0) -> OverlayGraph:
    """The paper's "random topology": every node has exactly ``degree``
    neighbors chosen at random (default 100, the paper's setting)."""
    overlay = random_regular_graph(n, degree, seed=seed)
    return overlay.renamed(f"random-{degree}")


def gnp_random_graph(n: int, p: float, seed: object = 0) -> OverlayGraph:
    """Erdős–Rényi G(n, p) (not used by the paper; for tests/examples): one
    ``random() < p`` per node pair in ``combinations`` order, the reference's draws."""
    if not 0 <= p <= 1:
        raise OverlayError(f"edge probability must be in [0, 1], got {p}")
    rng = derive_rng32(seed, "gnp", n, p)
    edges = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p]
    return OverlayGraph.from_edges(n, edges, name=f"gnp-{p}")


def ring_lattice_graph(n: int, k: int = 1) -> OverlayGraph:
    """Ring where each node connects to its ``k`` nearest neighbors on
    each side.  Deterministic; handy for small worked examples."""
    if n < 3:
        raise OverlayError(f"ring needs at least 3 nodes, got {n}")
    if not 1 <= k < n / 2:
        raise OverlayError(f"k must be in [1, n/2), got k={k}, n={n}")
    adjacency = [
        [(u + offset) % n for offset in range(-k, k + 1) if offset != 0]
        for u in range(n)
    ]
    return OverlayGraph(adjacency, name=f"ring-{k}")


def connect_components(overlay: OverlayGraph, seed: object = 0) -> OverlayGraph:
    """Return a connected copy by adding one random edge between each
    smaller component and the giant component."""
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
