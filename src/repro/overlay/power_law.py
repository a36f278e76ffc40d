"""Power-law overlay generator (Inet substitute).

The paper generates power-law graphs with Inet ("10 different power-law
graphs are generated by Inet, each with 4000 nodes, 8000 nodes, and 16000
nodes.  We use 0% of degree 1 nodes").  Inet is an external C program that
models AS-level Internet topologies with a power-law degree distribution
(exponent ≈ 2.2).  We substitute a configuration-model generator:

1. sample a degree sequence from a truncated discrete power law with the
   given exponent and minimum degree 2 (the paper's "0% of degree 1
   nodes");
2. build a configuration-model multigraph and simplify it (drop self-loops
   and parallel edges);
3. reconnect stray components to the giant component and patch any node
   whose degree fell below the minimum during simplification.

The properties MPIL's behaviour depends on — many low-degree nodes, a
heavy tail, a dense core — are preserved.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

import numpy as np

from repro.errors import OverlayError
from repro.overlay.graph import OverlayGraph, undirected_csr
from repro.overlay.random_graphs import connect_components
from repro.sim.rng import derive_rng, derive_rng32


def sample_power_law_degrees(
    n: int,
    exponent: float,
    min_degree: int,
    max_degree: int,
    seed: object,
) -> list[int]:
    """Sample ``n`` degrees from P(d) ∝ d^-exponent on [min_degree, max_degree].

    Uses inverse-CDF sampling on the discrete distribution; the sum is made
    even by bumping one node's degree if needed (configuration model
    requirement).
    """
    if min_degree < 1:
        raise OverlayError(f"min_degree must be >= 1, got {min_degree}")
    if max_degree < min_degree:
        raise OverlayError(
            f"max_degree ({max_degree}) must be >= min_degree ({min_degree})"
        )
    if not 1.0 < exponent < math.inf:
        raise OverlayError(f"power-law exponent must be finite and > 1, got {exponent}")
    rng = derive_rng(seed, "power-law-degrees", n, exponent, min_degree, max_degree)
    weights = [d ** (-exponent) for d in range(min_degree, max_degree + 1)]
    total = sum(weights)
    cdf = list(itertools.accumulate(w / total for w in weights))
    last = len(cdf) - 1
    degrees = [min_degree + min(bisect.bisect_left(cdf, rng.random()), last) for _ in range(n)]
    if sum(degrees) % 2 != 0:
        degrees[0] += 1
    return degrees


def power_law_graph(
    n: int,
    exponent: float = 2.2,
    min_degree: int = 2,
    max_degree: int | None = None,
    seed: object = 0,
) -> OverlayGraph:
    """A connected power-law overlay on ``n`` nodes (Inet-like).

    ``max_degree`` defaults to ``max(min_degree + 1, round(n ** 0.75))``,
    which keeps the hub sizes in the same regime as Inet's AS graphs
    without letting a single node dominate small test topologies.
    """
    if n < 4:
        raise OverlayError(f"power-law graph needs at least 4 nodes, got {n}")
    if max_degree is None:
        max_degree = max(min_degree + 1, round(n ** 0.75))
    max_degree = min(max_degree, n - 1)
    degrees = sample_power_law_degrees(n, exponent, min_degree, max_degree, seed)
    pairs = _configuration_model(degrees, derive_rng32(seed, "power-law-config", n))
    sources, targets = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    overlay = OverlayGraph.from_csr(
        *undirected_csr(n, sources, targets), name=f"power-law-{exponent}"
    )
    overlay = connect_components(overlay, seed=seed)
    overlay = _patch_min_degree(overlay, min_degree, seed)
    return overlay.renamed(f"power-law-{exponent}")


def _configuration_model(degrees: list[int], rng: random.Random) -> np.ndarray:
    """The configuration model's edges without self-loops, as an ``(m, 2)``
    array (the CSR sort collapses the parallel ones): the shuffled stubs'
    first half paired with the second, draw for draw the reference
    ``tests/test_overlay_oracle.py`` pins."""
    stubs = [node for node, degree in enumerate(degrees) for _ in range(degree)]
    rng.shuffle(stubs)
    half = len(stubs) // 2
    shuffled = np.array(stubs, dtype=np.int64)
    pairs = np.stack((shuffled[:half], shuffled[half:2 * half]), axis=1)
    return pairs[pairs[:, 0] != pairs[:, 1]]


def _patch_min_degree(
    overlay: OverlayGraph, min_degree: int, seed: object
) -> OverlayGraph:
    """Add random edges so no node falls below ``min_degree`` (the paper
    uses 0% degree-1 nodes, i.e. minimum degree 2).

    Only the nodes an added edge touches get a neighbor set (read from the
    CSR row); the new edges are merged with the old by
    :meth:`OverlayGraph.with_edges`."""
    n = overlay.n
    rng = derive_rng(seed, "power-law-patch", n)
    indptr, indices = overlay.adjacency_arrays()
    touched: dict[int, set[int]] = {}

    def neighbors(u: int) -> set[int]:
        if u not in touched:
            touched[u] = set(indices[indptr[u]:indptr[u + 1]].tolist())
        return touched[u]

    added: list[int] = []
    for u in [u for u, degree in enumerate(overlay.degrees) if degree < min_degree]:
        adjacent = neighbors(u)
        while len(adjacent) < min_degree:
            v = rng.randrange(n)
            if v != u and v not in adjacent:
                adjacent.add(v)
                neighbors(v).add(u)
                added += (u, v)
    if not added:
        return overlay
    return overlay.with_edges(added[0::2], added[1::2])


def estimated_exponent(overlay: OverlayGraph) -> float:
    """Crude max-likelihood estimate of the degree-distribution exponent
    (Clauset-style, continuous approximation with d_min = smallest degree).
    Used by tests to confirm heavy-tailed output."""
    degrees = [overlay.degree(u) for u in range(overlay.n)]
    d_min = max(1, min(degrees))
    logs = [math.log(d / (d_min - 0.5)) for d in degrees if d >= d_min]
    if not logs:
        raise OverlayError("no degrees available for exponent estimation")
    return 1.0 + len(logs) / sum(logs)
