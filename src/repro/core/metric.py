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
from repro.util.cache import make_room


def common_digits(a: Identifier, b: Identifier) -> int:
    """Module-level convenience alias for ``a.common_digits(b)``."""
    return a.common_digits(b)


def _score_dtype(matrix: np.ndarray) -> np.dtype:
    """The smallest unsigned dtype holding every score of an ``(n, M)``
    digit matrix, 0..M: ``uint8`` for the paper's 40 digits."""
    return np.min_scalar_type(matrix.shape[1])


def _leading_matches(mismatch: np.ndarray) -> np.ndarray:
    """Per row, the matching columns before the first mismatch (all M
    when there is none)."""
    first = mismatch.argmax(axis=1)
    first[~mismatch.any(axis=1)] = mismatch.shape[1]
    return first.astype(_score_dtype(mismatch))


class CommonDigitsMetric:
    """The MPIL routing metric: matching digits in matching positions."""

    name = "common-digits"

    def score(self, target: Identifier, candidate: Identifier) -> int:
        return target.common_digits(candidate)

    def scores_matrix(self, target_digits: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Vectorised scores of every row of ``matrix`` against the target."""
        return (matrix == target_digits).sum(axis=1, dtype=_score_dtype(matrix))


class PrefixLengthMetric:
    """Length of the shared prefix, in digits (Pastry/Tapestry style)."""

    name = "prefix"

    def score(self, target: Identifier, candidate: Identifier) -> int:
        return target.prefix_match_len(candidate)

    def scores_matrix(self, target_digits: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        return _leading_matches(matrix != target_digits)


class SuffixLengthMetric:
    """Length of the shared suffix, in digits (Plaxton/early-Tapestry style)."""

    name = "suffix"

    def score(self, target: Identifier, candidate: Identifier) -> int:
        return target.suffix_match_len(candidate)

    def scores_matrix(self, target_digits: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        return _leading_matches((matrix != target_digits)[:, ::-1])


_METRICS = {
    CommonDigitsMetric.name: CommonDigitsMetric,
    PrefixLengthMetric.name: PrefixLengthMetric,
    SuffixLengthMetric.name: SuffixLengthMetric,
}


#: What :func:`repro.core.routing.decide_forwarding` reads for one node and
#: object: ``(is_local_max, top, neighbors, order)``, laid out by
#: :func:`compact_ranking`.
RankedNeighbors = tuple[bool, tuple[int, ...], tuple[int, ...], bytes | memoryview]


class ObjectEntry(dict):
    """One object's entry in a :class:`NeighborMetricTable`'s cache.

    ``vector`` is the object's score against every node (read-only); the
    mapping holds ``node → RankedNeighbors`` for the nodes ranked so far,
    filled from ``vector`` by :meth:`NeighborMetricTable.ranked_neighbors`.
    Both are pure functions of the (table, object) pair, so an entry the
    table has evicted stays correct for whoever still holds it.  The entry
    holds no reference back to its table.
    """

    __slots__ = ("vector",)

    def __init__(self, vector: np.ndarray):
        super().__init__()
        self.vector = vector


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


def compact_ranking(
    self_score: int, neighbors: tuple[int, ...], scores: Sequence[int]
) -> RankedNeighbors:
    """``(is_local_max, top, neighbors, order)``: a node's neighbors ranked
    by their aligned ``scores``, in the layout
    :func:`repro.core.routing.decide_forwarding` reads.

    ``is_local_max`` says whether ``self_score`` is at least the best
    neighbor score (always, with no neighbors); ``top`` is the best tier's
    ids, taken from ``neighbors`` itself; ``order`` is :func:`rank_by_score`
    over positions into ``neighbors``: the ``d = len(neighbors)`` positions
    in rank order, then the tier ends.  It is ``bytes`` below degree 256
    and otherwise a read-only ``memoryview`` of the narrowest unsigned
    width that holds ``d``; either way indexing gives a Python int.

    >>> compact_ranking(3, (10, 11, 12, 13), (2, 5, 2, -1))
    (False, (11,), (10, 11, 12, 13), b'\\x01\\x00\\x02\\x03\\x01\\x03\\x04')
    """
    degree = len(neighbors)
    positions, ends, tier_scores = rank_by_score(range(degree), scores)
    if not ends:
        return True, (), neighbors, b""
    top = tuple([neighbors[p] for p in positions[: ends[0]]])
    codes = positions + ends
    order: bytes | memoryview
    if degree < 256:
        order = bytes(codes)
    else:
        wide = np.min_scalar_type(degree)
        order = memoryview(np.array(codes, dtype=wide).tobytes()).cast(wide.char)
    return self_score >= tier_scores[0], top, neighbors, order


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
    (:meth:`repro.overlay.graph.OverlayGraph.adjacency_arrays`) and its
    neighbor tuples, and owns one array of its own: the population's
    ``(n, M)`` digit matrix (:func:`repro.core.identifiers.pack_digit_matrix`).
    There are no per-node matrix copies and no per-node construction loop,
    which is what makes 10^5-node populations affordable: building the
    table is one vectorised pack of the identifiers.

    The table caches one :class:`ObjectEntry` per object (:meth:`entry`).
    The first query against an object evaluates the metric over the whole
    population in one vectorised pass (:meth:`scores_all`); every node's
    forwarding decision then gathers its own score and its CSR slice's
    from that vector (:meth:`scores_with_self`) and ranks them
    (:meth:`ranked_neighbors`), and the entry keeps the ranking under the
    node's id.  Results are integer-exact and byte-identical to scoring each
    node's matrix separately, because all three metrics are row-wise
    independent.  The experiments route the same objects through the same
    nodes many times, so after the first pass every decision is a dict hit.

    The memo lives under the process's one construction bound
    (:data:`repro.util.cache.CACHE_BYTES`, a resident-set ceiling): each
    new vector first makes room (:func:`repro.util.cache.make_room`), and
    when the process is still over the ceiling with nothing else cached
    left to drop, every entry is dropped at once.  A vector holds one
    score per node in the smallest unsigned dtype that holds the digit
    count (:func:`_score_dtype`; one byte for the paper's 40 digits).  At
    n = 4000 a vector is 4 KB, and a ranking holds ~204 B on the power-law
    overlay (mean degree 23) and ~306 B at degree 100 (``tracemalloc``,
    every node against one object).

    Every ranking holds the overlay's one Python int per node
    (:attr:`repro.overlay.graph.OverlayGraph.node_ints`): it keeps its
    node's neighbor tuple, the overlay's own, and below its top tier only
    positions into it.

    Parameters
    ----------
    overlay:
        An :class:`repro.overlay.graph.OverlayGraph` (or anything exposing
        ``n``, ``adjacency_arrays()`` and ``neighbors(node)``).
    ids:
        Sequence of :class:`Identifier`, one per overlay node.
    metric:
        A metric object (default :class:`CommonDigitsMetric`).
    """

    def __init__(self, overlay, ids: Sequence[Identifier], metric=None):
        n = overlay.n
        if len(ids) != n:
            raise RoutingError(f"identifier list has {len(ids)} entries for {n} nodes")
        self.ids = tuple(ids)
        self.metric = metric if metric is not None else CommonDigitsMetric()
        self.digits = pack_digit_matrix(self.ids)
        self._overlay = overlay
        self._indptr, self._indices = overlay.adjacency_arrays()
        self._entries: dict[int, ObjectEntry] = {}

    def _neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor indices of ``node`` (a CSR slice, no copy)."""
        return self._indices[self._indptr[node]:self._indptr[node + 1]]

    def neighbor_list(self, node: int) -> tuple[int, ...]:
        """Neighbor indices of ``node`` as plain Python ints (what
        :meth:`ranked_neighbors` ranks): the overlay's own tuple
        (:meth:`repro.overlay.graph.OverlayGraph.neighbors`), shared by
        every table over it."""
        return self._overlay.neighbors(node)

    def entry(self, target: Identifier) -> ObjectEntry:
        """The cache entry of ``target``, scored (one vectorised pass over
        the shared digit matrix) on a miss, after making room for it."""
        entry = self._entries.get(target.value)
        if entry is None:
            vector = self.metric.scores_matrix(
                np.frombuffer(target.digits, dtype=np.uint8), self.digits
            )
            vector.flags.writeable = False
            entry = ObjectEntry(vector)
            if make_room(self):
                self._entries.clear()
            self._entries[target.value] = entry
        return entry

    def scores_all(self, target: Identifier) -> np.ndarray:
        """Metric scores of *every* node against ``target``: the cached,
        read-only vector of its :meth:`entry`."""
        return self.entry(target).vector

    def scores(self, node: int, target: Identifier) -> np.ndarray:
        """Metric scores of every neighbor of ``node`` against ``target``."""
        return self.scores_all(target)[self._neighbors(node)]

    def scores_with_self(self, node: int, target: Identifier) -> list[int]:
        """``[self_score, *neighbor_scores]`` as a fresh Python list, aligned
        with ``[node, *neighbor_list(node)]`` and gathered from the batched
        per-target vector (:meth:`scores_all`)."""
        vector = self.scores_all(target)
        return [vector.item(node), *vector[self._neighbors(node)].tolist()]

    def ranked_neighbors(self, node: int, target: Identifier) -> RankedNeighbors:
        """``(is_local_max, top, neighbors, order)``: the neighbors of
        ``node`` ranked by their score against ``target``, which is what
        :func:`repro.core.routing.decide_forwarding` consumes.  Cached in
        ``target``'s :meth:`entry` under ``node``, and immutable all the way
        down; a miss is :func:`compact_ranking` of :meth:`neighbor_list` by
        :meth:`scores_with_self`.
        """
        entry = self.entry(target)
        ranked = entry.get(node)
        if ranked is None:
            scores = self.scores_with_self(node, target)
            ranked = compact_ranking(scores[0], self.neighbor_list(node), scores[1:])
            entry[node] = ranked
        return ranked

    def self_score(self, node: int, target: Identifier) -> int:
        """Metric score of ``node`` itself against ``target``."""
        return int(self.metric.score(target, self.ids[node]))
