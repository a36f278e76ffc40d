"""Tests for the hot-path rewrites, against their reference implementations.

The rewritten ``pastry_next_hop``, ``decide_forwarding``, and
``build_routing_tables`` are pinned against straightforward reference
implementations (the pre-optimisation algorithms, kept verbatim here) on
seeded random instances; the cached views (ranked neighbors, degrees, CSR
adjacency), the batched latency rows and :class:`BoundedCache` are pinned
against their unbatched counterparts; and the result store's events/sec
manifest entry is checked.
"""

from __future__ import annotations

import functools
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MPILConfig
from repro.core.flows import allowed_fanout, flows_consumed, split_flow_budget
from repro.core.identifiers import IdSpace
from repro.core.metric import NeighborMetricTable, metric_by_name, rank_by_score
from repro.core.network import MPILNetwork
from repro.core.routing import decide_forwarding
from repro.errors import ConfigurationError
from repro.experiments.store import ResultStore
from repro.overlay.graph import OverlayGraph
from repro.overlay.random_graphs import gnp_random_graph
from repro.overlay.transit_stub import TransitStubUnderlay
from repro.pastry import state as pastry_state
from repro.pastry.routing import pastry_next_hop
from repro.pastry.state import PastryRing, build_leaf_sets, build_routing_tables
from repro.sim.latency import ConstantLatency, UnderlayLatency, UniformRandomLatency
from repro.sim.rng import derive_rng
from repro.util.cache import BoundedCache, clear_all_caches


# ---------------------------------------------------------------------------
# Reference implementations: the pre-optimisation algorithms, verbatim.
# ---------------------------------------------------------------------------


def reference_next_hop(node, key, ring, leaf_set, table, alive):
    ids = ring.ids
    node_value = ids[node].value
    key_value = key.value
    alive_leaves = [m for m in leaf_set if alive(m, "leafset")]
    if alive_leaves:
        offsets = [ring.signed_offset(node_value, ids[m].value) for m in alive_leaves]
        lo = min(min(offsets), 0)
        hi = max(max(offsets), 0)
        key_offset = ring.signed_offset(node_value, key_value)
        if lo <= key_offset <= hi:
            best_node = node
            best = (ring.circular_distance(node_value, key_value), node_value)
            for m in alive_leaves:
                rank = (ring.circular_distance(ids[m].value, key_value), ids[m].value)
                if rank < best:
                    best = rank
                    best_node = m
            if best_node == node:
                return ("deliver", node, "self")
            return ("forward", best_node, "leafset")
    elif not leaf_set:
        return ("deliver", node, "self")
    shared = ids[node].prefix_match_len(key)
    if shared < key.space.num_digits:
        entry = table.get((shared, key.digit(shared)))
        if entry is not None and alive(entry, "table"):
            return ("forward", entry, "table")
    own_distance = ring.circular_distance(node_value, key_value)
    best_candidate = None
    best_rank = None
    seen: set[int] = set()
    for kind, candidates in (("leafset", leaf_set), ("table", table.values())):
        for candidate in candidates:
            if candidate == node or candidate in seen:
                continue
            seen.add(candidate)
            if not alive(candidate, kind):
                continue
            prefix = ids[candidate].prefix_match_len(key)
            if prefix < shared:
                continue
            distance = ring.circular_distance(ids[candidate].value, key_value)
            if distance >= own_distance:
                continue
            rank = (-prefix, distance, ids[candidate].value)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_candidate = candidate
    if best_candidate is not None:
        return ("forward", best_candidate, "fallback")
    return ("deliver", node, "self")


def reference_decide(
    self_score,
    neighbor_ids,
    neighbor_scores,
    excluded,
    max_flows,
    given_flows,
    rng,
    tie_break="random",
    local_max_rule="all-neighbors",
):
    """The forwarding rule as a scan over *unranked*, aligned id/score
    sequences: ``(is_local_max, next_hops, budgets, new_flows)``."""
    ids_list = list(neighbor_ids)
    scores_list = list(neighbor_scores)
    n = len(ids_list)
    best = None
    best_positions: list[int] = []
    for i, neighbor in enumerate(ids_list):
        if neighbor in excluded:
            continue
        score = scores_list[i]
        if best is None or score > best:
            best = score
            best_positions = [i]
        elif score == best:
            best_positions.append(i)
    best_candidate_score = best

    if local_max_rule == "all-neighbors":
        reference = max(scores_list) if n else None
    else:
        reference = best_candidate_score
    is_local_max = reference is None or self_score >= reference

    fanout = allowed_fanout(max_flows, given_flows, len(best_positions))
    if fanout == 0:
        return (is_local_max, (), (), 0)

    if fanout < len(best_positions):
        if tie_break == "random":
            chosen = rng.sample(best_positions, fanout)
        else:
            by_id = sorted(best_positions, key=ids_list.__getitem__)
            chosen = by_id[:fanout]
    else:
        chosen = best_positions

    next_hops = tuple(ids_list[i] for i in chosen)
    budgets = tuple(split_flow_budget(max_flows, given_flows, fanout))
    return (is_local_max, next_hops, budgets, flows_consumed(given_flows, fanout))


def reference_routing_tables(ring, latency=None, seed: object = 0, replaces=operator.lt):
    """The per-owner scan ``build_routing_tables`` replaced: candidates in
    ascending index order (shuffled when there is no latency model), a cell
    replaced when the newcomer's latency ``replaces`` the holder's."""
    ids = ring.ids
    n = ring.n
    rng = derive_rng(seed, "pastry-tables", n)
    base_order = list(range(n))
    tables = []
    for i in range(n):
        order = base_order
        if latency is None:
            order = base_order.copy()
            rng.shuffle(order)
        table: dict[tuple[int, int], int] = {}
        id_i = ids[i]
        for j in order:
            if j == i:
                continue
            id_j = ids[j]
            r = id_i.prefix_match_len(id_j)
            cell = (r, id_j.digit(r))
            current = table.get(cell)
            if current is None:
                table[cell] = j
            elif latency is not None and replaces(
                latency.latency(i, j), latency.latency(i, current)
            ):
                table[cell] = j
        tables.append(table)
    return tables


def _random_ring(n: int, seed: int) -> PastryRing:
    space = IdSpace(bits=16, digit_bits=4)
    rng = derive_rng(seed, "perf-test-ids")
    return PastryRing(space.random_unique_identifiers(n, rng))


class TestOptimizedRoutingMatchesReference:
    """Regression pin: optimisation must never change a routing decision."""

    def test_next_hop_parity_on_fixed_seed(self):
        ring = _random_ring(24, seed=9)
        leaf_sets = build_leaf_sets(ring, 8)
        tables = build_routing_tables(ring, seed=9)
        rng = derive_rng(9, "perf-test-queries")
        space = ring.space
        for trial in range(120):
            node = rng.randrange(ring.n)
            key = space.random_identifier(rng)
            dead = set(rng.sample(range(ring.n), rng.randrange(0, ring.n // 2)))

            def alive(candidate: int, _kind: str) -> bool:
                return candidate not in dead

            expected = reference_next_hop(
                node, key, ring, leaf_sets[node], tables[node], alive
            )
            decision = pastry_next_hop(
                node, key, ring, leaf_sets[node], tables[node], alive
            )
            assert (decision.action, decision.node, decision.source) == expected

    def test_next_hop_all_alive_fast_path_matches_predicate(self):
        ring = _random_ring(17, seed=4)
        leaf_sets = build_leaf_sets(ring, 6)
        tables = build_routing_tables(ring, seed=4)
        rng = derive_rng(4, "perf-test-queries")
        for _ in range(60):
            node = rng.randrange(ring.n)
            key = ring.space.random_identifier(rng)
            via_none = pastry_next_hop(
                node, key, ring, leaf_sets[node], tables[node], None
            )
            via_predicate = pastry_next_hop(
                node, key, ring, leaf_sets[node], tables[node], lambda *_: True
            )
            assert via_none == via_predicate

    def test_routing_tables_parity_without_latency(self):
        ring = _random_ring(30, seed=5)
        assert build_routing_tables(ring, seed=5) == reference_routing_tables(
            ring, seed=5
        )

    def test_routing_tables_parity_with_latency(self):
        ring = _random_ring(30, seed=6)
        latency = UniformRandomLatency(0.01, 0.09, seed=6)
        assert build_routing_tables(
            ring, latency=latency, seed=6
        ) == reference_routing_tables(ring, latency=latency, seed=6)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_latency_is_rejected_before_any_table(self, bad):
        """A min-based selection would silently empty the cell a ``nan``
        lands in; the builder names the pair instead."""

        class OneBadPair:
            def latency(self, src, dst):
                return bad if (src, dst) == (4, 9) else 0.05

        ring = _random_ring(12, seed=6)
        with pytest.raises(ConfigurationError, match="node 4 to node 9"):
            build_routing_tables(ring, latency=OneBadPair(), seed=6)

    def test_prefix_len_memo_matches_identifier(self):
        ring = _random_ring(12, seed=7)
        rng = derive_rng(7, "keys")
        for _ in range(40):
            node = rng.randrange(ring.n)
            key = ring.space.random_identifier(rng)
            assert ring.prefix_len(node, key) == ring.ids[node].prefix_match_len(key)
            # second call hits the memo
            assert ring.prefix_len(node, key) == ring.ids[node].prefix_match_len(key)


class TwoValuedLatency:
    """Latencies quantised to two values: every cell with three candidates
    holds a tie."""

    def __init__(self, seed: int):
        self.seed = seed

    def latency(self, src: int, dst: int) -> float:
        return 0.02 if (src * 31 + dst * 17 + self.seed) % 3 else 0.07


@functools.lru_cache(maxsize=None)
def _small_underlay() -> TransitStubUnderlay:
    return TransitStubUnderlay.for_size(40, seed=3)


def _tie_forcing_latency(kind: str, n: int, seed: int):
    if kind == "shuffle":
        return None
    if kind == "constant":
        return ConstantLatency(0.05)
    if kind == "two-valued":
        return TwoValuedLatency(seed)
    if kind == "uniform":
        return UniformRandomLatency(0.01, 0.09, seed=seed)
    # several overlay nodes per attachment point: exact ties, zeros included
    underlay = _small_underlay()
    rng = derive_rng(seed, "shared-attachment")
    points = rng.sample(list(underlay.stub_nodes), max(1, n // 4))
    return UnderlayLatency(underlay, [rng.choice(points) for _ in range(n)])


def assert_tables_are_the_scan(build, ring, latency, seed):
    """``build``'s tables equal the reference scan's, and each is filled in
    ascending cell order (``pastry_next_hop``'s fallback walks
    ``table.values()``, so the order is behaviour)."""
    tables = build(ring, latency=latency, seed=seed)
    assert tables == reference_routing_tables(ring, latency=latency, seed=seed)
    for table in tables:
        assert list(table.items()) == sorted(table.items())


class TestRoutingTableSelection:
    """The scatter-min selection against the scan it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 36),
        id_bits=st.sampled_from([(8, 2), (16, 4)]),
        owners_per_block=st.integers(1, 36),
        kind=st.sampled_from(["shuffle", "constant", "two-valued", "uniform", "underlay"]),
        seed=st.integers(0, 2**16),
    )
    def test_tables_are_the_scan_on_any_ring_block_and_tie(
        self, n, id_bits, owners_per_block, kind, seed
    ):
        bits, digit_bits = id_bits
        space = IdSpace(bits=bits, digit_bits=digit_bits)
        ring = PastryRing(space.random_unique_identifiers(n, derive_rng(seed, "ids")))
        # from one owner per (B, n, M) pass up to the whole ring in one
        block_bytes = min(owners_per_block, n) * n * space.num_digits
        saved = pastry_state._BUILD_BLOCK_BYTES
        pastry_state._BUILD_BLOCK_BYTES = block_bytes
        try:
            assert_tables_are_the_scan(
                build_routing_tables, ring, _tie_forcing_latency(kind, n, seed), seed
            )
        finally:
            pastry_state._BUILD_BLOCK_BYTES = saved

    @pytest.mark.parametrize("kind", ["constant", "two-valued", "underlay"])
    def test_mutant_last_index_on_ties_fails_the_differential(self, kind):
        """Mutant: ``<=`` for strict ``<`` — a tie goes to the last index,
        not the first.  The check above must tell the two apart on each
        tie-forcing latency model."""
        last_on_ties = functools.partial(reference_routing_tables, replaces=operator.le)
        ring = _random_ring(30, seed=6)
        latency = _tie_forcing_latency(kind, ring.n, 6)
        with pytest.raises(AssertionError):
            assert_tables_are_the_scan(last_on_ties, ring, latency, 6)
        assert_tables_are_the_scan(build_routing_tables, ring, latency, 6)


def _ranked(self_score, neighbor_ids, neighbor_scores):
    return (self_score, *rank_by_score(neighbor_ids, neighbor_scores))


class TestDecideForwardingParity:
    def test_list_and_array_inputs_agree(self):
        rng = derive_rng(11, "decide")
        for trial in range(80):
            n = rng.randrange(1, 12)
            neighbor_ids = rng.sample(range(100), n)
            neighbor_scores = [rng.randrange(0, 6) for _ in range(n)]
            excluded = set(rng.sample(neighbor_ids, rng.randrange(0, n)))
            self_score = rng.randrange(0, 6)
            kwargs = dict(
                excluded=excluded,
                max_flows=rng.randrange(0, 5),
                given_flows=rng.randrange(0, 2),
                tie_break=rng.choice(["random", "lowest-id"]),
                local_max_rule=rng.choice(["all-neighbors", "unvisited-only"]),
            )
            # the gather hands out numpy-derived lists, the tests bare tuples
            from_arrays = decide_forwarding(
                _ranked(
                    self_score,
                    np.asarray(neighbor_ids, dtype=np.int64).tolist(),
                    np.asarray(neighbor_scores, dtype=np.int32).tolist(),
                ),
                draw=random.Random(trial).sample,
                **kwargs,
            )
            from_lists = decide_forwarding(
                _ranked(self_score, tuple(neighbor_ids), list(neighbor_scores)),
                draw=random.Random(trial).sample,
                **kwargs,
            )
            scanned = reference_decide(
                self_score, neighbor_ids, neighbor_scores, rng=random.Random(trial), **kwargs
            )
            assert from_arrays == from_lists == scanned
            assert all(isinstance(hop, int) for hop in from_arrays.next_hops)

    @given(
        neighbors=st.lists(
            st.tuples(st.integers(0, 400), st.integers(-6, 6)),
            max_size=24,
            unique_by=lambda pair: pair[0],
        ),
        score_span=st.sampled_from([1, 3, 13]),
        self_score=st.integers(-6, 6),
        excluded_share=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
        max_flows=st.integers(0, 5),
        given_flows=st.integers(0, 1),
        tie_break=st.sampled_from(["random", "lowest-id"]),
        local_max_rule=st.sampled_from(["all-neighbors", "unvisited-only"]),
        seed=st.integers(0, 2**16),
    )
    def test_ranked_decision_is_the_scan_on_any_input(
        self,
        neighbors,
        score_span,
        self_score,
        excluded_share,
        max_flows,
        given_flows,
        tie_break,
        local_max_rule,
        seed,
    ):
        """Same four fields *and* the same RNG state afterwards, over ids in
        arbitrary order, negative and all-equal scores (``score_span`` 1),
        no neighbors, and everything excluded (``excluded_share`` 1) — with
        the exclusion as the route tuple ``MPILRequest.step`` passes and as
        a set."""
        neighbor_ids = [peer for peer, _ in neighbors]
        neighbor_scores = [score % score_span - score_span // 2 for _, score in neighbors]
        picker = random.Random(seed)
        # the deciding node itself (401) is never a neighbor
        route = (*(peer for peer in neighbor_ids if picker.random() < excluded_share), 401)
        scan_rng = random.Random(seed)
        scanned = reference_decide(
            self_score,
            neighbor_ids,
            neighbor_scores,
            set(route),
            max_flows,
            given_flows,
            scan_rng,
            tie_break,
            local_max_rule,
        )
        for excluded in (route, set(route)):
            ranked_rng = random.Random(seed)
            decision = decide_forwarding(
                _ranked(self_score, neighbor_ids, neighbor_scores),
                excluded,
                max_flows,
                given_flows,
                ranked_rng.sample,
                tie_break,
                local_max_rule,
            )
            assert decision == scanned
            assert ranked_rng.getstate() == scan_rng.getstate()

    def test_negative_scores_still_select_a_candidate(self):
        # custom metrics may return negative scores; the tier walk must not
        # treat them as worse-than-no-candidate
        decision = decide_forwarding(
            _ranked(-10, (1, 2, 3), [-5, -2, -7]),
            excluded=(3,),
            max_flows=2,
            given_flows=0,
            draw=random.Random(0).sample,
        )
        assert decision.next_hops == (2,)
        assert decision.is_local_max is False


class TestCachedViews:
    def test_scores_with_self_matches_unbatched(self):
        overlay = gnp_random_graph(30, 0.2, seed=3)
        network = MPILNetwork(overlay, config=MPILConfig(), seed=3)
        table = network.metric_table
        rng = derive_rng(3, "targets")
        for _ in range(10):
            target = network.space.random_identifier(rng)
            for node in range(overlay.n):
                combined = table.scores_with_self(node, target)
                assert combined[0] == table.self_score(node, target)
                assert combined[1:] == table.scores(node, target).tolist()
                assert table.neighbor_list(node) == overlay.neighbors(node)
                # not memoised itself: the one memo holds the ranked form
                assert table.scores_with_self(node, target) is not combined

    @pytest.mark.parametrize("metric_name", ["common-digits", "prefix", "suffix"])
    def test_ranked_neighbors_is_the_ranked_gather(self, metric_name):
        overlay = gnp_random_graph(30, 0.2, seed=3)
        ids = MPILNetwork(overlay, seed=3).ids
        table = NeighborMetricTable(overlay, ids, metric=metric_by_name(metric_name))
        rng = derive_rng(3, "targets")
        for _ in range(10):
            target = ids[0].space.random_identifier(rng)
            for node in range(overlay.n):
                scores = table.scores_with_self(node, target)
                entry = table.ranked_neighbors(node, target)
                assert entry == _ranked(scores[0], table.neighbor_list(node), scores[1:])
                # memoised: the same immutable entry comes back
                assert table.ranked_neighbors(node, target) is entry
                assert type(entry) is tuple
                assert all(type(member) is tuple for member in entry[1:])

    def test_ranked_neighbors_survives_memo_overflow(self, monkeypatch):
        overlay = gnp_random_graph(30, 0.2, seed=3)
        network = MPILNetwork(overlay, config=MPILConfig(), seed=3)
        table = network.metric_table
        target = network.space.random_identifier(derive_rng(3, "targets"))
        expected = [table.ranked_neighbors(node, target) for node in range(overlay.n)]
        monkeypatch.setattr(NeighborMetricTable, "SCORE_CACHE_LIMIT", 8)
        table._score_cache.clear()
        for _ in range(2):
            for node in range(overlay.n):
                assert table.ranked_neighbors(node, target) == expected[node]
                assert len(table._score_cache) <= 8

    def test_rank_by_score_keeps_input_order_inside_a_tier(self):
        assert rank_by_score((7, 3, 9, 1, 5), (2, -1, 2, 4, -1)) == (
            (1, 7, 9, 3, 5),
            (1, 3, 5),
            (4, 2, -1),
        )
        assert rank_by_score((), ()) == ((), (), ())

    def test_graph_degree_views(self):
        overlay = gnp_random_graph(25, 0.15, seed=8)
        assert overlay.degrees == tuple(
            len(overlay.neighbors(u)) for u in range(overlay.n)
        )
        assert overlay.total_degrees == overlay.degrees  # undirected
        indptr, indices = overlay.adjacency_arrays()
        for u in range(overlay.n):
            assert tuple(indices[indptr[u]:indptr[u + 1]]) == overlay.neighbors(u)
        # cached: same arrays back
        assert overlay.adjacency_arrays()[0] is indptr

    def test_directed_total_degrees(self):
        overlay = OverlayGraph([(1,), (2,), (1,)], directed=True)
        # out: 1,1,1; in: node1 gets 2 (from 0 and 2), node2 gets 1
        assert overlay.total_degrees == (1, 3, 2)


class TestUnderlayLatencyRows:
    def test_row_matches_pairwise_and_validates_size(self):
        underlay = TransitStubUnderlay.for_size(60, seed=1)
        attachment = underlay.random_attachment(10, seed=2)
        model = UnderlayLatency(underlay, attachment)
        row = model.latency_row(3, 10)
        assert len(row) == 10
        for dst in range(10):
            if dst != 3:
                assert row[dst] == pytest.approx(model.latency(3, dst))
        with pytest.raises(ConfigurationError, match="attached"):
            model.latency_row(0, 11)

    @pytest.mark.parametrize("matrix", [True, False])
    def test_block_is_the_stacked_rows_bit_for_bit(self, matrix):
        """Before any row was materialised and after all were — over an
        underlay with a ``latency_matrix`` and one exposing only
        ``pairwise_latency``."""

        class PairwiseOnly:
            def __init__(self, underlay):
                self.num_nodes = underlay.num_nodes
                self.pairwise_latency = underlay.pairwise_latency

        underlay = TransitStubUnderlay.for_size(60, seed=1)
        attachment = underlay.random_attachment(10, seed=2)
        model = UnderlayLatency(underlay if matrix else PairwiseOnly(underlay), attachment)
        ranges = [(0, 10, 10), (3, 7, 10), (2, 9, 6), (4, 4, 10), (0, 10, 0)]
        before = [model.latency_block(*r) for r in ranges]
        assert (len(model._rows) == 0) == matrix  # the matrix gather fills no row
        for (start, stop, n), block in zip(ranges, before):
            rows = [model.latency_row(src, n) for src in range(start, stop)]
            assert block.shape == (stop - start, n)
            assert block.dtype == np.float64
            assert block.tolist() == rows
        assert len(model._rows) == 10
        for r, block in zip(ranges, before):
            assert np.array_equal(model.latency_block(*r), block)

    def test_source_or_width_out_of_range_is_a_configuration_error(self):
        underlay = TransitStubUnderlay.for_size(60, seed=1)
        model = UnderlayLatency(underlay, underlay.random_attachment(3, seed=2))
        for src, n in [(7, 3), (3, 3), (-1, 3), (0, -1), (0, 4)]:
            with pytest.raises(ConfigurationError, match="attached"):
                model.latency_row(src, n)  # (7, 3) was an IndexError, (0, -1) a short row
        for start, stop, n in [(0, 4, 3), (2, 1, 3), (-1, 2, 3), (0, 3, -1), (0, 3, 4)]:
            with pytest.raises(ConfigurationError, match="attached"):
                model.latency_block(start, stop, n)
        assert not model._rows


class TestBoundedCache:
    def test_lru_eviction_and_refresh(self):
        cache: BoundedCache[int] = BoundedCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a" to most-recent
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_maxsize_validated(self):
        with pytest.raises(ConfigurationError):
            BoundedCache(maxsize=0)

    def test_clear_all_caches_empties_instances(self):
        cache: BoundedCache[int] = BoundedCache(maxsize=4)
        cache.put("x", 1)
        clear_all_caches()
        assert cache.get("x") is None

    def test_get_or_build_calls_factory_once(self):
        cache: BoundedCache[int] = BoundedCache(maxsize=4)
        calls = []

        def factory() -> int:
            calls.append(1)
            return 42

        assert cache.get_or_build("k", factory) == 42
        assert cache.get_or_build("k", factory) == 42
        assert len(calls) == 1


class TestEventsPerSecPlumbing:
    def test_manifest_records_events_per_sec(self, tmp_path):
        from repro.experiments.base import ExperimentResult

        store = ResultStore(tmp_path)
        result = ExperimentResult("fig0", "t", ("a",), [(1,)], scale="smoke")
        store.save(result, seed=0, wall_clock=2.0, events_processed=100)
        manifest = store.manifest("fig0", "smoke")
        assert manifest["runs"]["seed_0"]["events_per_sec"] == 50.0

    def test_untimed_save_records_zero(self, tmp_path):
        from repro.experiments.base import ExperimentResult

        store = ResultStore(tmp_path)
        result = ExperimentResult("fig0", "t", ("a",), [(1,)], scale="smoke")
        store.save(result, seed=1)
        assert store.manifest("fig0", "smoke")["runs"]["seed_1"]["events_per_sec"] == 0.0