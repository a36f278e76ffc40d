"""Routing metrics and vectorised neighbor metric tables.

MPIL's metric (Section 4.1) counts the digits two identifiers share at the
same positions.  For the ablation study motivated by Section 4.2 ("The
effectiveness of such redundancy is limited for prefix and suffix routing
due to the lower distinguishability of their routing metrics") we also
implement prefix-length and suffix-length metrics behind the same
interface, so the MPIL drivers can be run with any of the three.

``NeighborMetricTable`` keeps the population's digit matrix beside the
overlay's CSR adjacency; evaluating the metric against a target is then one
NumPy comparison, which is what makes the 16000-node experiments feasible
in Python.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.identifiers import Identifier, pack_digit_matrix
from repro.errors import ConfigurationError, RoutingError


def common_digits(a: Identifier, b: Identifier) -> int:
    """Module-level convenience alias for ``a.common_digits(b)``."""
    return a.common_digits(b)


class CommonDigitsMetric:
    """The MPIL routing metric: matching digits in matching positions."""

    name = "common-digits"

    def score(self, target: Identifier, candidate: Identifier) -> int:
        return target.common_digits(candidate)

    def scores_matrix(self, target_digits: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Vectorised scores of every row of ``matrix`` against the target."""
        return (matrix == target_digits).sum(axis=1, dtype=np.int32)


class PrefixLengthMetric:
    """Length of the shared prefix, in digits (Pastry/Tapestry style)."""

    name = "prefix"

    def score(self, target: Identifier, candidate: Identifier) -> int:
        return target.prefix_match_len(candidate)

    def scores_matrix(self, target_digits: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        mismatch = matrix != target_digits
        any_mismatch = mismatch.any(axis=1)
        first = mismatch.argmax(axis=1).astype(np.int32)
        full = np.int32(matrix.shape[1])
        return np.where(any_mismatch, first, full)


class SuffixLengthMetric:
    """Length of the shared suffix, in digits (Plaxton/early-Tapestry style)."""

    name = "suffix"

    def score(self, target: Identifier, candidate: Identifier) -> int:
        return target.suffix_match_len(candidate)

    def scores_matrix(self, target_digits: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        mismatch = (matrix != target_digits)[:, ::-1]
        any_mismatch = mismatch.any(axis=1)
        first = mismatch.argmax(axis=1).astype(np.int32)
        full = np.int32(matrix.shape[1])
        return np.where(any_mismatch, first, full)


_METRICS = {
    CommonDigitsMetric.name: CommonDigitsMetric,
    PrefixLengthMetric.name: PrefixLengthMetric,
    SuffixLengthMetric.name: SuffixLengthMetric,
}


#: One memo entry of :meth:`NeighborMetricTable.ranked_neighbors`:
#: ``(self_score, ids_by_rank, tier_ends, tier_scores)``.
RankedNeighbors = tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def rank_by_score(
    ids: Sequence[int], scores: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """``(ids_by_rank, tier_ends, tier_scores)`` of aligned id/score sequences.

    ``ids_by_rank`` is ``ids`` stable-sorted by score, highest first, so
    equal-score ids keep their input order; tier ``t`` — the ids sharing
    ``tier_scores[t]`` — is ``ids_by_rank[tier_ends[t - 1]:tier_ends[t]]``
    (from 0 for the top tier).

    >>> rank_by_score((10, 11, 12, 13), (2, 5, 2, -1))
    ((11, 10, 12, 13), (1, 3, 4), (5, 2, -1))
    """
    tiers: dict[int, list[int]] = {}
    for peer, score in zip(ids, scores):
        if score in tiers:
            tiers[score].append(peer)
        else:
            tiers[score] = [peer]
    tier_scores = tuple(sorted(tiers, reverse=True))
    ranked: list[int] = []
    ends: list[int] = []
    for score in tier_scores:
        ranked += tiers[score]
        ends.append(len(ranked))
    return tuple(ranked), tuple(ends), tier_scores


def metric_by_name(name: str):
    """Instantiate a metric from its configuration name."""
    try:
        return _METRICS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown metric {name!r}; choose from {sorted(_METRICS)}"
        ) from None


class NeighborMetricTable:
    """Struct-of-arrays metric table: batched scoring over one shared matrix.

    The table reads the overlay's CSR adjacency
    (:meth:`repro.overlay.graph.OverlayGraph.adjacency_arrays`) and owns
    two arrays of its own: the population's ``(n, M)`` digit matrix
    (:func:`repro.core.identifiers.pack_digit_matrix`) and a
    ``[self, *neighbors]`` row index per node.  There are no per-node
    matrix copies and no per-node construction loop, which is what makes
    10^5-node populations affordable: building the table is a handful of
    vectorised array operations.

    Scoring is batched per *target*: the first query against a target
    evaluates the metric over the whole population in one vectorised pass
    (:meth:`scores_all`); every node's forwarding decision then gathers its
    ``[self, *neighbors]`` slice from that vector.  Results are integer-exact
    and byte-identical to scoring each node's matrix separately, because all
    three metrics are row-wise independent.  What the forwarding decision
    reads is that slice *ranked* (:meth:`ranked_neighbors`), memoised per
    ``(node, target)``: the ranking is a pure function of the pair, and the
    experiments route the same objects through the same nodes many times.

    Parameters
    ----------
    overlay:
        An :class:`repro.overlay.graph.OverlayGraph` (or anything exposing
        ``n`` and ``adjacency_arrays()``).
    ids:
        Sequence of :class:`Identifier`, one per overlay node.
    metric:
        A metric object (default :class:`CommonDigitsMetric`).
    """

    #: cap on the per-table (node, target) memo of :meth:`ranked_neighbors`.
    #: An entry is its key and four tuples — 248 B + 8 B a neighbor + 16 B a
    #: score tier, and ~40 B of dict slot; the ids are ``neighbor_list``'s
    #: own int objects.  Measured on the 4000-node ``static`` overlays: 536 B
    #: a mean entry on the power-law graph (copies pass nodes of mean degree
    #: 23), 1.2 KB at degree 100 — a full memo is ~100 MB and ~245 MB there
    SCORE_CACHE_LIMIT = 200_000

    def __init__(self, overlay, ids: Sequence[Identifier], metric=None):
        n = overlay.n
        if len(ids) != n:
            raise RoutingError(f"identifier list has {len(ids)} entries for {n} nodes")
        self.ids = tuple(ids)
        self.metric = metric if metric is not None else CommonDigitsMetric()
        self.digits = pack_digit_matrix(self.ids)
        self._indptr, self._indices = overlay.adjacency_arrays()
        # node u's [self, *neighbors] rows are
        # rows_with_self[indptr_ws[u]:indptr_ws[u + 1]]: the CSR offsets
        # shifted by one slot per node, self indices scattered into the gaps
        self.indptr_ws = self._indptr + np.arange(n + 1, dtype=np.int64)
        rows = np.empty(self._indices.shape[0] + n, dtype=np.int64)
        rows[self.indptr_ws[:-1]] = np.arange(n, dtype=np.int64)
        neighbor_slots = np.ones(rows.shape[0], dtype=bool)
        neighbor_slots[self.indptr_ws[:-1]] = False
        rows[neighbor_slots] = self._indices
        rows.flags.writeable = False
        self.rows_with_self = rows
        self._neighbor_tuples: dict[int, tuple[int, ...]] = {}
        self._score_cache: dict[tuple[int, int], RankedNeighbors] = {}
        # Full-population score vectors, keyed by target value.  Each entry
        # is 4n bytes, so the bound scales inversely with population size to
        # keep the cache's worst case in the same ballpark as the memo above.
        self._target_cache: dict[int, np.ndarray] = {}
        self._max_cached_targets = max(4, self.SCORE_CACHE_LIMIT // max(1, n))

    def _neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor indices of ``node`` (a CSR slice, no copy)."""
        return self._indices[self._indptr[node]:self._indptr[node + 1]]

    def neighbor_list(self, node: int) -> tuple[int, ...]:
        """Neighbor indices of ``node`` as plain Python ints (what
        :meth:`ranked_neighbors` ranks; every entry of a node shares these
        int objects).  Materialised lazily per node from the CSR slice."""
        cached = self._neighbor_tuples.get(node)
        if cached is None:
            cached = tuple(self._neighbors(node).tolist())
            self._neighbor_tuples[node] = cached
        return cached

    def scores_all(self, target: Identifier) -> np.ndarray:
        """Metric scores of *every* node against ``target`` (one vectorised
        pass over the shared digit matrix, memoised per target).  Callers
        must treat the returned array as read-only."""
        vector = self._target_cache.get(target.value)
        if vector is None:
            if len(self._target_cache) >= self._max_cached_targets:
                self._target_cache.clear()
            vector = self.metric.scores_matrix(
                np.frombuffer(target.digits, dtype=np.uint8), self.digits
            )
            self._target_cache[target.value] = vector
        return vector

    def scores(self, node: int, target: Identifier) -> np.ndarray:
        """Metric scores of every neighbor of ``node`` against ``target``."""
        return self.scores_all(target)[self._neighbors(node)]

    def scores_with_self(self, node: int, target: Identifier) -> list[int]:
        """``[self_score, *neighbor_scores]`` as a fresh Python list, aligned
        with ``[node, *neighbor_list(node)]`` and gathered from the batched
        per-target vector (:meth:`scores_all`)."""
        rows = self.rows_with_self[self.indptr_ws[node]:self.indptr_ws[node + 1]]
        return self.scores_all(target)[rows].tolist()

    def ranked_neighbors(self, node: int, target: Identifier) -> RankedNeighbors:
        """``(self_score, ids_by_rank, tier_ends, tier_scores)``: the
        neighbors of ``node`` ranked by their score against ``target``
        (:func:`rank_by_score` over :meth:`neighbor_list` and
        :meth:`scores_with_self`), which is what
        :func:`repro.core.routing.decide_forwarding` consumes.

        Memoised per ``(node, target)`` because the experiments re-route the
        same objects across many lookups, scenario cells and protocol
        variants; the entry is immutable all the way down.
        """
        key = (node, target.value)
        cached = self._score_cache.get(key)
        if cached is None:
            if len(self._score_cache) >= self.SCORE_CACHE_LIMIT:
                self._score_cache.clear()
            scores = self.scores_with_self(node, target)
            cached = (scores[0], *rank_by_score(self.neighbor_list(node), scores[1:]))
            self._score_cache[key] = cached
        return cached

    def self_score(self, node: int, target: Identifier) -> int:
        """Metric score of ``node`` itself against ``target``."""
        return int(self.metric.score(target, self.ids[node]))
