"""The overlay graph abstraction.

``OverlayGraph`` is a frozen adjacency structure: node indices are dense
integers ``0..n-1`` and the neighbor lists are held as one CSR pair
``(indptr, indices)`` with each row sorted.  MPIL treats the overlay as
arbitrary and read-only, which is the point of the paper ("the overlay
underneath can be arbitrary"), so immutability is the honest
representation.

Undirected graphs are validated for symmetry; directed graphs (used for the
MPIL-over-Pastry adapter, where a Pastry node's outgoing neighbor list is
its leaf set plus routing-table entries) skip that check.

Every constructor ends in the same arrays and the same vectorised
validation: the sequence-of-neighbor-lists constructor and
:meth:`from_edges` sort their ``(node, neighbor)`` pairs into CSR through
one function, :func:`_sorted_csr`, and :meth:`from_csr` takes
already-normalised ``(indptr, indices)`` arrays.  Per-node neighbor tuples
are materialised from the arrays lazily, on the first :meth:`neighbors`.
"""

from __future__ import annotations

import collections
import copy
import itertools
from typing import Iterable, Sequence

import numpy as np

from repro.errors import OverlayError


class OverlayGraph:
    """Immutable overlay adjacency structure over CSR arrays."""

    def __init__(
        self,
        adjacency: Sequence[Iterable[int]],
        name: str = "overlay",
        directed: bool = False,
    ):
        rows = [list(neighbors) for neighbors in adjacency]
        owners = np.repeat(np.arange(len(rows), dtype=np.int64), [len(row) for row in rows])
        indices = np.fromiter(itertools.chain.from_iterable(rows), np.int64, owners.shape[0])
        self._init_csr(*_sorted_csr(len(rows), owners, indices), name, directed)

    def _init_csr(
        self, indptr: np.ndarray, indices: np.ndarray, name: str, directed: bool
    ) -> None:
        """Adopt ``(indptr, indices)`` after whole-array validation: range,
        self-loops, sorted duplicate-free rows, and symmetry when
        undirected."""
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indptr.shape[0] == 0:
            raise OverlayError("indptr must be a 1-d array of n + 1 offsets")
        n = indptr.shape[0] - 1
        if int(indptr[0]) != 0 or int(indptr[-1]) != indices.shape[0]:
            raise OverlayError("indptr does not span the indices array")
        degrees = np.diff(indptr)
        if (degrees < 0).any():
            raise OverlayError("indptr offsets must be non-decreasing")
        if indices.shape[0]:
            owners = np.repeat(np.arange(n, dtype=np.int64), degrees)
            if int(indices.min()) < 0 or int(indices.max()) >= n:
                bad = int(owners[(indices < 0) | (indices >= n)][0])
                raise OverlayError(f"node {bad} has an out-of-range neighbor")
            if (indices == owners).any():
                bad = int(owners[indices == owners][0])
                raise OverlayError(f"node {bad} has a self-loop")
            same_row = owners[1:] == owners[:-1]
            if (same_row & (indices[1:] <= indices[:-1])).any():
                bad = int(owners[1:][same_row & (indices[1:] <= indices[:-1])][0])
                raise OverlayError(
                    f"node {bad} has unsorted or duplicate neighbors"
                )
            if not directed:
                forward = owners * n + indices
                backward = indices * n + owners
                forward.sort()
                backward.sort()
                if not np.array_equal(forward, backward):
                    raise OverlayError("undirected overlay is asymmetric")
        self._n = n
        self.name = name
        self.directed = directed
        self._csr = (indptr, indices)
        #: per-node degree, computed once (perturbation families rank and
        #: re-rank nodes by degree)
        self._degrees: tuple[int, ...] = tuple(degrees.tolist())
        self._total_degrees: tuple[int, ...] | None = None
        self._rows: tuple[tuple[int, ...], ...] | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], name: str = "overlay"
    ) -> "OverlayGraph":
        """Build an undirected overlay from an edge list (every generator's
        way in); parallel edges collapse into one."""
        pairs = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64)
        sources, targets = pairs.reshape(-1, 2).T
        both = (np.concatenate((sources, targets)), np.concatenate((targets, sources)))
        return cls.from_csr(*_sorted_csr(n, *both), name=name)

    @classmethod
    def from_csr(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        name: str = "overlay",
        directed: bool = False,
    ) -> "OverlayGraph":
        """Build an overlay directly from CSR ``(indptr, indices)`` arrays.

        Rows must be sorted and duplicate-free (:func:`_sorted_csr`
        normalises before calling this).  Validation runs as whole-array
        passes, so constructing a 10^5-node overlay costs milliseconds.
        """
        self = cls.__new__(cls)
        self._init_csr(indptr, indices, name, directed)
        return self

    def renamed(self, name: str) -> "OverlayGraph":
        """A copy under a new name sharing every frozen structure (the
        generators' final rename used to re-normalise all n neighbor lists)."""
        clone = copy.copy(self)
        clone.name = name
        return clone

    # -- accessors ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        """Per-node sorted neighbor tuples, materialised from the CSR arrays
        on first use (one ``tolist`` pass, plain Python ints)."""
        if self._rows is None:
            indptr, indices = self._csr
            flat = indices.tolist()
            offsets = indptr.tolist()
            self._rows = tuple(
                tuple(flat[offsets[u]:offsets[u + 1]]) for u in range(self._n)
            )
        return self._rows

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self._adj[node]

    def degree(self, node: int) -> int:
        return self._degrees[node]

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degree of every node, as one cached tuple (out-degree for
        directed overlays)."""
        return self._degrees

    @property
    def total_degrees(self) -> tuple[int, ...]:
        """Out + in degree of every node, cached.

        For undirected overlays this is just :attr:`degrees`; for directed
        ones (Pastry neighbor lists) it adds how many nodes point *at* each
        node — the ranking adversarial-removal scenarios target — without
        re-walking the adjacency per scenario cell.
        """
        if not self.directed:
            return self._degrees
        if self._total_degrees is None:
            _indptr, indices = self._csr
            incoming = np.bincount(indices, minlength=self.n)
            self._total_degrees = tuple(
                int(out + inc) for out, inc in zip(self._degrees, incoming)
            )
        return self._total_degrees

    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR ``(indptr, indices)`` adjacency.

        ``indices[indptr[u]:indptr[u + 1]]`` are the (sorted) neighbors of
        ``u``.  Callers must treat both arrays as read-only.
        """
        return self._csr

    @property
    def num_edges(self) -> int:
        total = sum(self._degrees)
        return total if self.directed else total // 2

    def is_connected(self) -> bool:
        """Connectivity test (weak connectivity for directed graphs).

        Undirected graphs run a vectorised frontier expansion over the CSR
        arrays — whole-frontier neighbor gathers instead of a per-node
        Python BFS — so the generators' connectivity retries stay cheap at
        10^5+ nodes.  Directed graphs count :meth:`components`.
        """
        if self.n == 0:
            return True
        if self.directed:
            return len(self.components()) == 1
        indptr, indices = self._csr
        visited = np.zeros(self.n, dtype=bool)
        visited[0] = True
        frontier = np.array([0], dtype=np.int64)
        reached = 1
        while frontier.size:
            starts = indptr[frontier]
            ends = indptr[frontier + 1]
            gathered = [indices[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
            neighbors = np.concatenate(gathered) if gathered else indices[:0]
            fresh = np.unique(neighbors[~visited[neighbors]])
            visited[fresh] = True
            reached += fresh.shape[0]
            frontier = fresh
        return reached == self.n

    def components(self) -> list[list[int]]:
        """Connected components (undirected view), largest first."""
        seen: set[int] = set()
        components: list[list[int]] = []
        undirected: list[set[int]] = [set(ns) for ns in self._adj]
        if self.directed:
            for u in range(self.n):
                for v in self._adj[u]:
                    undirected[v].add(u)
        for start in range(self.n):
            if start in seen:
                continue
            component = [start]
            seen.add(start)
            frontier = collections.deque([start])
            while frontier:
                u = frontier.popleft()
                for v in undirected[u]:
                    if v not in seen:
                        seen.add(v)
                        component.append(v)
                        frontier.append(v)
            components.append(component)
        components.sort(key=len, reverse=True)
        return components

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"OverlayGraph(name={self.name!r}, n={self.n}, "
            f"edges={self.num_edges}, {kind})"
        )


def _sorted_csr(n: int, owners: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the ``owners[i] -> indices[i]`` pairs,
    rows sorted and repeats dropped: one sort of ``owner * n + neighbor``
    keys (``np.unique`` does the same far slower under numpy 2.x)."""
    outside = (indices < 0) | (indices >= n)
    if outside.any():
        raise OverlayError(f"node {int(owners[outside][0])} has an out-of-range neighbor")
    keys = owners * n + indices
    keys.sort()
    distinct = np.ones(keys.shape[0], dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    owners, indices = np.divmod(keys[distinct], n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=n), out=indptr[1:])
    return indptr, indices
