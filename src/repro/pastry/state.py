"""Pastry ring state: sorted identifier ring, leaf sets, routing tables.

Node identifiers live on a circular identifier space.  The *root* of a key
is the node whose identifier is numerically closest on the ring (ties break
toward the lower identifier, deterministically).  A node's leaf set holds
the l/2 closest nodes clockwise and counter-clockwise; its routing table
holds, per (prefix-length, next-digit) cell, one node whose identifier
shares exactly that prefix with the owner — chosen by lowest latency when a
latency model is available (Pastry's proximity neighbor selection),
otherwise pseudo-randomly.
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

import numpy as np

from repro.core.identifiers import Identifier, pack_digit_matrix
from repro.errors import ConfigurationError
from repro.sim.rng import derive_rng

#: bytes of one ``(B, n)`` int64 row array per table-build pass: it sets
#: the owners per block B, and a block's handful of such rows is the
#: build's transient (traced above the tables it returns: 1.7 MiB at 1000
#: nodes, 1.4 MiB at 5000).  Results are identical for any value >= 1
#: (tests shrink it to force multi-block runs)
_BUILD_BLOCK_BYTES = 256 << 10


class PastryRing:
    """Sorted ring over node identifiers with root/leaf-set queries.

    Besides the sorted order, the ring caches each node's raw identifier
    value (``values``), from which :meth:`prefix_len` — the digit
    decomposition at the core of every routing step — is one XOR.
    """

    def __init__(self, ids: Sequence[Identifier]):
        if not ids:
            raise ConfigurationError("ring needs at least one node")
        self.ids = tuple(ids)
        self.space = ids[0].space
        n = len(ids)
        values = [identifier.value for identifier in ids]
        if len(set(values)) != n:
            raise ConfigurationError("node identifiers must be unique")
        self.ring_order = sorted(range(n), key=lambda i: values[i])
        self.position_of = {node: pos for pos, node in enumerate(self.ring_order)}
        self.sorted_values = [values[node] for node in self.ring_order]
        #: raw identifier value per node index (hot-path view; avoids an
        #: attribute hop through ``ids[node].value`` per routing step)
        self.values: tuple[int, ...] = tuple(values)
        self._digit_matrix: np.ndarray | None = None

    @property
    def digit_matrix(self) -> np.ndarray:
        """The shared ``(n, M)`` uint8 digit matrix of the ring's ids,
        built once and read by routing-table construction."""
        if self._digit_matrix is None:
            self._digit_matrix = pack_digit_matrix(self.ids)
        return self._digit_matrix

    def prefix_len(self, node: int, key: Identifier) -> int:
        """``ids[node].prefix_match_len(key)`` (the per-hop digit
        decomposition of the Pastry routing rule) for a key of the ring's
        space, which the lookup entry points check once."""
        space = self.space
        return (space.bits - (self.values[node] ^ key.value).bit_length()) // space.digit_bits

    @property
    def n(self) -> int:
        return len(self.ids)

    def circular_distance(self, a_value: int, b_value: int) -> int:
        d = abs(a_value - b_value)
        return min(d, self.space.size - d)

    def root_of(self, key: Identifier) -> int:
        """Node numerically closest to ``key`` on the ring."""
        n = self.n
        idx = bisect.bisect_left(self.sorted_values, key.value)
        best_node: Optional[int] = None
        best = (0, 0)
        for candidate_pos in (idx % n, (idx - 1) % n):
            node = self.ring_order[candidate_pos]
            dist = self.circular_distance(self.ids[node].value, key.value)
            rank = (dist, self.ids[node].value)
            if best_node is None or rank < best:
                best_node = node
                best = rank
        assert best_node is not None
        return best_node

    def leaf_set(self, node: int, size: int) -> tuple[int, ...]:
        """The l/2 successors and l/2 predecessors of ``node`` on the ring.

        For rings smaller than ``size + 1`` the leaf set is simply every
        other node.
        """
        n = self.n
        if n - 1 <= size:
            return tuple(v for v in self.ring_order if v != node)
        half = size // 2
        pos = self.position_of[node]
        members: list[int] = []
        for offset in range(1, half + 1):
            members.append(self.ring_order[(pos + offset) % n])
        for offset in range(1, size - half + 1):
            members.append(self.ring_order[(pos - offset) % n])
        return tuple(dict.fromkeys(members))

    def signed_offset(self, from_value: int, to_value: int) -> int:
        """Ring offset of ``to`` relative to ``from`` mapped to
        (-size/2, size/2]; positive = clockwise."""
        size = self.space.size
        offset = (to_value - from_value) % size
        if offset > size // 2:
            offset -= size
        return offset


def build_leaf_sets(ring: PastryRing, leaf_set_size: int) -> list[tuple[int, ...]]:
    """Leaf sets for every node."""
    return [ring.leaf_set(node, leaf_set_size) for node in range(ring.n)]


def build_routing_tables(
    ring: PastryRing,
    latency=None,
    seed: object = 0,
) -> list[dict[tuple[int, int], int]]:
    """Routing tables for every node.

    Cell ``(r, c)`` of node ``i``'s table holds a node sharing exactly an
    ``r``-digit prefix with ``i`` and whose digit ``r`` is ``c``.  A
    candidate's cost is its latency from ``i`` when a latency model is given
    (proximity neighbor selection), otherwise its position in a per-owner
    shuffle (pseudo-random but deterministic); a cell keeps its lowest-cost
    candidate, the lowest node index among equals — an ascending scan that
    replaces on strict ``<``.

    Owners are processed in blocks sized so that one ``(B, n)`` int64 row
    array takes ``_BUILD_BLOCK_BYTES``.  A block's shared-prefix lengths
    come from a scan of the digit matrix's columns: one ``(B, n)`` "still
    equal" mask, ANDed with one column a step and added into the prefix
    lengths, until no pair matches (about ``log_base(n) + 1`` columns, at
    most ``M``).  One scatter-min over the block's ``(B, n)`` costs finds
    each ``(owner, cell)``'s lowest cost, and a second, over the flat
    positions that attain it, the lowest index (1000 nodes take 44–53 ms
    and 5000 nodes 0.6–1.0 s on 2 cores).  Costs come from
    ``latency.latency_block(start, stop, n)`` where the model has one, else
    from per-pair ``latency(i, j)``; one that is not finite is a
    :class:`ConfigurationError`.  Shuffle draws happen in owner order, and
    each table is filled in ascending ``(r, c)`` order (``pastry_next_hop``'s
    fallback scans ``table.values()``).
    """
    n = ring.n
    rng = derive_rng(seed, "pastry-tables", n)
    base = ring.space.base
    digit_matrix = ring.digit_matrix
    num_digits = digit_matrix.shape[1] if n else 0
    block = max(1, min(n, _BUILD_BLOCK_BYTES // max(1, 8 * n)))
    prefix_dtype = np.min_scalar_type(num_digits)
    arange_n = np.arange(n, dtype=np.int64)
    sentinel = num_digits * base  # parks each owner's self row off-table
    latency_block = getattr(latency, "latency_block", None)
    # one (r, c) key per cell and one int per node, shared by every table
    cell_keys = [divmod(cell, base) for cell in range(sentinel)]
    node_ints = list(range(n))
    tables: list[dict[tuple[int, int], int]] = []
    for start in range(0, n, block):
        stop = min(n, start + block)
        width = stop - start
        if latency is None:
            costs = np.empty((width, n), dtype=np.float64)
            for k in range(width):
                order = list(range(n))
                rng.shuffle(order)
                costs[k, order] = arange_n
        elif latency_block is not None:
            costs = latency_block(start, stop, n)
        else:
            costs = np.array(
                [[latency.latency(i, j) for j in range(n)] for i in range(start, stop)],
                dtype=np.float64,
            )
        if not np.isfinite(costs).all():  # a nan would never win its cell
            k, j = np.argwhere(~np.isfinite(costs))[0].tolist()
            raise ConfigurationError(
                f"latency from node {start + k} to node {j} is "
                f"{costs[k, j]}; routing tables need finite latencies"
            )
        # ``equal`` holds the (owner, j) pairs that still match.  Each
        # owner's own column is masked up front (prefix 0, parked on the
        # sentinel cell below); identifiers are unique, so no other pair
        # matches through column M - 1 and ``prefix`` indexes a digit
        owner_rows = np.arange(width)
        equal = np.ones((width, n), dtype=bool)
        equal[owner_rows, owner_rows + start] = False
        prefix = np.zeros((width, n), dtype=prefix_dtype)
        for column in digit_matrix.T:
            equal &= column[start:stop, None] == column
            if not equal.any():
                break
            prefix += equal
        cells = np.multiply(prefix, base, dtype=np.int64)
        cells += digit_matrix[arange_n[None, :], prefix]
        cells[owner_rows, owner_rows + start] = sentinel
        keys = (cells + np.int64(sentinel + 1) * np.arange(width)[:, None]).ravel()
        flat_costs = costs.ravel()
        best = np.full(width * (sentinel + 1), np.inf)
        np.minimum.at(best, keys, flat_costs)
        hits = np.flatnonzero(flat_costs == best[keys])
        first = np.full(width * (sentinel + 1), width * n, dtype=np.int64)
        np.minimum.at(first, keys[hits], hits)
        # row-major over (owner, cell) is ascending (r, c) within each owner
        first = first.reshape(width, sentinel + 1)[:, :sentinel]
        owners, filled = np.nonzero(first < width * n)
        block_tables: list[dict[tuple[int, int], int]] = [{} for _ in range(width)]
        for owner, cell, node in zip(
            owners.tolist(), filled.tolist(), (first[owners, filled] % n).tolist()
        ):
            block_tables[owner][cell_keys[cell]] = node_ints[node]
        tables.extend(block_tables)
    return tables


def table_entry_count(tables: list[dict[tuple[int, int], int]]) -> float:
    """Average number of populated routing-table cells per node."""
    if not tables:
        return 0.0
    return sum(len(t) for t in tables) / len(tables)
