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
one function, :func:`_keys_to_csr`, and :meth:`from_csr` takes
already-normalised ``(indptr, indices)`` arrays.  The generators hand their
edges over as arrays (:func:`undirected_csr`, then :meth:`from_csr`);
:meth:`from_edges` serves hand-written pair lists.  A node's neighbor
tuple is materialised from the arrays lazily, on that node's first
:meth:`neighbors`, out of :attr:`OverlayGraph.node_ints`: one Python int
per node, shared by every tuple that names it, and one tuple per node,
shared by every caller.
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
            loops = indices == owners
            if loops.any():
                raise OverlayError(f"node {int(owners[loops.argmax()])} has a self-loop")
            del loops
            if not directed:
                backward = indices * n
                backward += owners
            # the forward keys ``owner * n + neighbor``, in place of the
            # owners: strictly ascending exactly when every row is sorted
            # and duplicate-free, so they need no sort
            forward = owners
            forward *= n
            forward += indices
            descents = forward[1:] <= forward[:-1]
            if descents.any():
                bad = int(forward[descents.argmax() + 1]) // n
                raise OverlayError(f"node {bad} has unsorted or duplicate neighbors")
            del descents
            if not directed:
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
        self._node_ints: np.ndarray | None = None
        #: node ``u``'s neighbor tuple once :meth:`neighbors` built it
        self._rows: list[tuple[int, ...] | None] = [None] * n

    # -- construction -------------------------------------------------------

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], name: str = "overlay"
    ) -> "OverlayGraph":
        """Build an undirected overlay from a hand-written edge list;
        parallel edges collapse into one."""
        pairs = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64)
        return cls.from_csr(*undirected_csr(n, *pairs.reshape(-1, 2).T), name=name)

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
        """A copy under a new name sharing every frozen structure."""
        clone = copy.copy(self)
        clone.name = name
        return clone

    def with_edges(self, sources: Sequence[int], targets: Sequence[int]) -> "OverlayGraph":
        """This undirected overlay plus the edges ``sources[i] -- targets[i]``:
        the old edges read from the CSR's upper triangle and merged with the
        new through :func:`undirected_csr`."""
        if self.directed:
            raise OverlayError("with_edges adds undirected edges to an undirected overlay")
        indptr, indices = self._csr
        owners = np.repeat(np.arange(self._n, dtype=np.int64), np.diff(indptr))
        upper = owners < indices
        return self.from_csr(
            *undirected_csr(
                self._n,
                np.concatenate((owners[upper], np.asarray(sources, dtype=np.int64))),
                np.concatenate((indices[upper], np.asarray(targets, dtype=np.int64))),
            ),
            name=self.name,
        )

    # -- accessors ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def node_ints(self) -> np.ndarray:
        """Read-only object array whose entry ``u`` is the one Python int
        for node ``u``: gathering from it (``node_ints[indices].tolist()``)
        yields shared ints where ``indices.tolist()`` would box fresh ones."""
        if self._node_ints is None:
            ints = np.arange(self._n).astype(object)
            ints.flags.writeable = False
            self._node_ints = ints
        return self._node_ints

    def neighbors(self, node: int) -> tuple[int, ...]:
        """The sorted neighbors of ``node``, gathered from :attr:`node_ints`
        the first time the node is asked for and then kept: every caller
        shares one tuple per node."""
        row = self._rows[node]
        if row is None:
            indptr, indices = self._csr
            row = tuple(self.node_ints[indices[indptr[node]:indptr[node + 1]]].tolist())
            self._rows[node] = row
        return row

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
            fresh = _sorted_distinct(neighbors[~visited[neighbors]])
            visited[fresh] = True
            reached += fresh.shape[0]
            frontier = fresh
        return reached == self.n

    def components(self) -> list[list[int]]:
        """Connected components (undirected view), largest first."""
        seen: set[int] = set()
        components: list[list[int]] = []
        undirected: list[set[int]] = [set(self.neighbors(u)) for u in range(self.n)]
        if self.directed:
            for u in range(self.n):
                for v in self.neighbors(u):
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


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``values``' distinct entries in ascending order, sorting ``values``
    in place: ``np.unique``'s result, which under numpy 2.x it computes far
    slower and only after importing ``numpy.ma`` on its first call."""
    values.sort()
    distinct = np.ones(values.shape[0], dtype=bool)
    distinct[1:] = values[1:] != values[:-1]
    return values[distinct]


def undirected_csr(
    n: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the undirected edges
    ``sources[i] -- targets[i]``: both directions' keys in one buffer, sorted
    as :func:`_sorted_csr` sorts, so parallel edges collapse into one."""
    _check_neighbors(n, sources, targets)
    _check_neighbors(n, targets, sources)
    edges = sources.shape[0]
    keys = np.empty(2 * edges, dtype=np.int64)
    np.multiply(sources, n, out=keys[:edges])
    keys[:edges] += targets
    np.multiply(targets, n, out=keys[edges:])
    keys[edges:] += sources
    return _keys_to_csr(n, keys)


def _sorted_csr(n: int, owners: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the ``owners[i] -> indices[i]`` pairs,
    rows sorted and repeats dropped: one sort of ``owner * n + neighbor``
    keys."""
    _check_neighbors(n, owners, indices)
    keys = owners * n
    keys += indices
    return _keys_to_csr(n, keys)


def _check_neighbors(n: int, owners: np.ndarray, indices: np.ndarray) -> None:
    """Reject the first pair whose neighbor is no node of ``0..n-1``."""
    outside = indices < 0
    outside |= indices >= n
    if outside.any():
        raise OverlayError(f"node {int(owners[outside.argmax()])} has an out-of-range neighbor")


def _keys_to_csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the int64 ``owner * n + neighbor`` ``keys``, reusing their
    buffer: sorted in place, repeats dropped (a copy only when there are
    some), each row's start found by a binary search for ``u * n``, and
    the keys reduced ``%= n`` in place to the neighbors."""
    keys.sort()
    repeats = keys[1:] == keys[:-1]
    if repeats.any():
        np.logical_not(repeats, out=repeats)
        keys = keys[np.concatenate(([True], repeats))]
    del repeats
    indptr = keys.searchsorted(np.arange(n + 1, dtype=np.int64) * n)
    if n:
        keys %= n
    return indptr, keys
