"""Random overlay generators.

The paper's "random graphs" give every node exactly 100 neighbors — i.e.
random regular graphs ("In these random graphs, each node has 100
neighbors, equally").  :func:`fixed_degree_random_graph` is the exported
name for that family; :func:`random_regular_graph` is the underlying
generator.  A G(n, p) generator and a ring lattice are included for tests
and examples.
"""

from __future__ import annotations

import random

import numpy as np

from repro.errors import OverlayError
from repro.overlay.graph import OverlayGraph, undirected_csr
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
        sources, targets = np.divmod(edges, n)
        del edges  # each stage's input is freed before the next allocates
        csr = undirected_csr(n, sources, targets)
        del sources, targets
        overlay = OverlayGraph.from_csr(*csr, name=f"random-regular-{degree}")
        del csr
        if overlay.is_connected():
            return overlay
    raise OverlayError(
        f"failed to generate a connected {degree}-regular graph on {n} nodes "
        f"after {max_attempts} attempts"
    )


def _pairing_model(n: int, degree: int, rng: random.Random) -> np.ndarray:
    """The edges of one simple d-regular sample (Steger and Wormald): pair
    shuffled stubs off, re-shuffle those that would make a self-loop or a
    parallel edge, start over when none can pair.  Draw for draw the reference
    ``tests/test_overlay_oracle.py`` pins it to, so overlays keep their bytes.
    Edge ``u -- v`` (``u < v``) is held as the int ``u * n + v``; the sample
    is their sorted int64 array.

    Only ``rng.shuffle`` runs per stub.  A round's pairs are judged in numpy
    as the reference judges them one by one: in code order (a stable sort),
    a pair is kept when it is no self-loop (``u * (n + 1)``), its code is no
    edge of an earlier round, and it is the first of its code.  The rejected
    pairs, back in draw order, fill the reference's ``unpaired`` counts,
    whose order sets the next round's stubs."""
    while True:
        edges = np.empty(0, dtype=np.int64)
        stubs = list(range(n)) * degree
        while stubs:
            rng.shuffle(stubs)
            ends = np.array(stubs, dtype=np.int64)
            del stubs
            first, second = ends[0::2], ends[1::2]
            codes = np.minimum(first, second)
            codes *= n
            codes += np.maximum(first, second)
            del ends, first, second
            order = codes.argsort(kind="stable")
            codes = codes[order]
            # ``u * n + v`` is ``u * (n + 1) + (v - u)``, so its remainder
            # is ``v - u``: 0 only for a self-loop
            kept = codes % (n + 1) != 0
            kept[1:] &= codes[1:] != codes[:-1]
            if edges.size:
                kept &= ~_contains(edges, codes)
            edges = _merged(edges, codes[kept])
            np.logical_not(kept, out=kept)
            rejected = codes[kept][order[kept].argsort()]
            del order, codes, kept
            unpaired: dict[int, int] = {}
            for code in rejected.tolist():
                for node in divmod(code, n):
                    unpaired[node] = unpaired.get(node, 0) + 1
            if unpaired and not _can_pair(edges, unpaired, n):
                break
            stubs = [node for node, count in unpaired.items() for _ in range(count)]
        else:
            return edges


def _contains(sorted_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mask of the ``values`` found in the non-empty ascending
    ``sorted_values``."""
    at = sorted_values.searchsorted(values)
    np.minimum(at, sorted_values.shape[0] - 1, out=at)
    return sorted_values[at] == values


def _merged(edges: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """The ascending union of the disjoint ascending ``edges`` and
    ``fresh``, by placing each array's entries rather than sorting both."""
    if not edges.size:
        return fresh
    at = edges.searchsorted(fresh)
    at += np.arange(fresh.shape[0])
    merged = np.empty(edges.shape[0] + fresh.shape[0], dtype=np.int64)
    merged[at] = fresh
    new = np.zeros(merged.shape[0], dtype=bool)
    new[at] = True
    merged[~new] = edges
    return merged


def _can_pair(edges: np.ndarray, unpaired: dict[int, int], n: int) -> bool:
    """Whether the next round can still pair ``unpaired`` (not empty), with
    ``edges`` the sorted codes of :func:`_pairing_model`: the reference's
    check as written, whose swap rebinds ``s1`` and so skips some pairs;
    which pairs it checks decides when a sample starts over.  A code's
    membership is one binary search."""
    size = edges.shape[0]
    for s1 in unpaired:
        for s2 in unpaired:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            code = s1 * n + s2
            at = int(edges.searchsorted(code))
            if at == size or edges[at] != code:
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
    sources, targets = np.triu_indices(n, 1)  # combinations(range(n), 2) order
    pairs = sources.shape[0]
    kept = np.fromiter((rng.random() < p for _ in range(pairs)), bool, pairs)
    return OverlayGraph.from_csr(
        *undirected_csr(n, sources[kept], targets[kept]), name=f"gnp-{p}"
    )


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
    smaller component and the giant component (``overlay`` itself when it
    is connected already)."""
    if overlay.is_connected():
        return overlay
    components = overlay.components()
    rng = derive_rng(seed, "connect-components", overlay.n)
    giant = components[0]
    added = [(rng.choice(component), rng.choice(giant)) for component in components[1:]]
    return overlay.with_edges(*zip(*added))
