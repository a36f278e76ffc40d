"""Tests for the hot-path rewrites, against their reference implementations.

The rewritten ``pastry_next_hop``, ``decide_forwarding``, and
``build_routing_tables`` are pinned against straightforward reference
implementations (the pre-optimisation algorithms, kept verbatim here) on
seeded random instances; the cached views (ranked neighbors, degrees, CSR
adjacency) are pinned against their unbatched counterparts, and the one
construction cache against its resident-set ceiling; the underlay latency
model is pinned against the underlay's matrix; the cold-built structures'
memory is guarded with ``tracemalloc``; and the result store's events/sec
manifest entry is checked.
"""

from __future__ import annotations

import collections
import functools
import gc
import hashlib
import inspect
import json
import operator
import random
import textwrap
import weakref

import numpy as np
import pytest
from conftest import dijkstra_latencies, traced_memory
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.config import MPILConfig
from repro.core.flows import allowed_fanout, flows_consumed, split_flow_budget
from repro.core.identifiers import IdSpace
from repro.core.metric import (
    CommonDigitsMetric,
    NeighborMetricTable,
    compact_ranking,
    metric_by_name,
    rank_by_score,
)
from repro.core.network import MPILNetwork
from repro.core.routing import decide_forwarding
from repro.errors import ConfigurationError
from repro.experiments import perturbed, workloads
from repro.experiments.scales import get_scale, register_scale, unregister_scale
from repro.experiments.store import ResultStore
from repro.overlay import random_graphs
from repro.overlay.graph import OverlayGraph, undirected_csr
from repro.overlay.power_law import power_law_graph
from repro.overlay.random_graphs import fixed_degree_random_graph, gnp_random_graph
from repro.overlay.transit_stub import TransitStubUnderlay
from repro.pastry import routing as pastry_routing
from repro.pastry import state as pastry_state
from repro.pastry.routing import pastry_next_hop
from repro.pastry.state import PastryRing, build_leaf_sets, build_routing_tables
from repro.sim.latency import ConstantLatency, UnderlayLatency, UniformRandomLatency
from repro.sim.rng import derive_rng, derive_rng32
from repro.util import cache
from repro.util.cache import clear_all_caches, get_or_build


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
):
    """The forwarding rule as a scan over *unranked*, aligned id/score
    sequences: ``(is_local_max, next_hops, budgets, new_flows)``.  The
    local maximum is tested against every neighbor, visited or not."""
    ids_list = list(neighbor_ids)
    scores_list = list(neighbor_scores)
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
    is_local_max = not scores_list or self_score >= max(scores_list)

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


HOP_SPACE = IdSpace(bits=16, digit_bits=4)


@st.composite
def hop_instances(draw):
    """One hop's inputs: a ring of 1–40 nodes, the deciding node's leaf set
    (2–16), its table with cells dropped and junk cells added, a key
    anywhere, at the midpoint of two of the node's neighbours (so distances
    tie) or next to one, and a drawn set of dead ``(node, kind)`` pairs."""
    size = HOP_SPACE.size
    n = draw(st.integers(1, 40))
    values = draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n, unique=True))
    ring = PastryRing([HOP_SPACE.identifier(value) for value in values])
    node = draw(st.integers(0, n - 1))
    leaf_set = ring.leaf_set(node, 2 * draw(st.integers(1, 8)))
    built = build_routing_tables(ring, seed=draw(st.integers(0, 3)))[node]
    kept = draw(st.lists(st.booleans(), min_size=len(built), max_size=len(built)))
    table = {cell: entry for (cell, entry), keep in zip(built.items(), kept) if keep}
    cells = st.tuples(st.integers(0, HOP_SPACE.num_digits - 1), st.integers(0, 15))
    table.update(draw(st.dictionaries(cells, st.integers(0, n - 1), max_size=4)))
    # the node and its leaves in ring order; a key between two adjacent ones
    # ties their distances
    node_value = values[node]
    around = sorted(
        [node_value, *(values[m] for m in leaf_set)],
        key=lambda value: (value - node_value + size // 2) % size,
    )
    i = draw(st.integers(0, len(around) - 1))
    a, b = around[i], around[(i + 1) % len(around)]
    key_value = draw(
        st.one_of(
            st.integers(0, size - 1),
            st.sampled_from([(a + b) // 2, ((a + b) // 2 + size // 2) % size]),
            st.integers(-2, 2).map(lambda delta: (a + delta) % size),
        )
    )
    pairs = [(c, kind) for c in range(n) for kind in ("leafset", "table")]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    dead = frozenset(pair for pair, flag in zip(pairs, flags) if flag)
    return node, HOP_SPACE.identifier(key_value), ring, leaf_set, table, dead


def assert_hop_is_the_reference(next_hop, instance):
    """``next_hop`` decides as ``reference_next_hop`` does, asks only
    questions the reference asks, and asks none of them twice."""
    node, key, ring, leaf_set, table, dead = instance

    def recorded(log):
        def alive(candidate, kind):
            log.append((candidate, kind))
            return (candidate, kind) not in dead

        return alive

    asked: list = []
    asked_by_reference: list = []
    decision = next_hop(node, key, ring, leaf_set, table, recorded(asked))
    expected = reference_next_hop(node, key, ring, leaf_set, table, recorded(asked_by_reference))
    assert (decision.action, decision.node, decision.source) == expected, "decision differs"
    assert set(asked) <= set(asked_by_reference), "asked what the reference never asks"
    assert len(asked) == len(set(asked)), "asked a question twice"


def _mutant(old: str, new: str):
    """``pastry_next_hop`` with one block of its source replaced: ``old``
    and ``new`` are dedented, then indented as ``old``'s first line is."""
    source = inspect.getsource(pastry_routing.pastry_next_hop)
    old = textwrap.dedent(old).strip("\n")
    new = textwrap.dedent(new).strip("\n")
    first = old.splitlines()[0]
    lines = [line for line in source.splitlines() if line.strip() == first]
    assert len(lines) == 1, f"mutation site {first!r} not found once"
    indent = lines[0][: len(lines[0]) - len(lines[0].lstrip())]
    old, new = textwrap.indent(old, indent), textwrap.indent(new, indent)
    assert source.count(old) == 1, f"mutation site {old!r} not found once"
    namespace = dict(vars(pastry_routing))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace["pastry_next_hop"]


#: name -> (old, new) source blocks of ``pastry_next_hop``
HOP_MUTANTS = {
    # the span decided by the first believed-alive leaf on either side
    "span-from-first-alive-leaf": (
        """
        if 0 <= key_offset <= offset or offset <= key_offset <= 0:
            in_span = leaf_answers[m] = alive(m, LEAFSET)
            if in_span:
                break
        """,
        """
        leaf_answers[m] = alive(m, LEAFSET)
        if leaf_answers[m]:
            in_span = 0 <= key_offset <= offset or offset <= key_offset <= 0
            break
        """,
    ),
    # the rare case stops at the first believed-alive candidate it walks to
    "fallback-first-alive": (
        """
        best_candidate = candidate
        """,
        """
        return HopDecision(FORWARD, candidate, "fallback")
        """,
    ),
    # the closest leaf ranked by distance alone, index on ties
    "closest-leaf-without-value": (
        """
        rank = (distance, m_value, m)
        """,
        """
        rank = (distance, 0, m)
        """,
    ),
}


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

    @settings(max_examples=300, deadline=None)
    @given(instance=hop_instances())
    def test_next_hop_asks_less_and_decides_the_same(self, instance):
        assert_hop_is_the_reference(pastry_next_hop, instance)

    @pytest.mark.parametrize("name", sorted(HOP_MUTANTS))
    def test_mutant_fails_the_next_hop_differential(self, name):
        """Each mutant of the lazy rule keeps asking only what the reference
        asks; the differential above must still catch its decisions."""
        mutant = _mutant(*HOP_MUTANTS[name])

        # a tie the closest-leaf mutant breaks wrongly is about one draw in
        # forty; the search stops at the first failure
        @settings(
            max_examples=1000,
            derandomize=True,
            database=None,
            phases=[Phase.generate],
            report_multiple_bugs=False,
        )
        @given(instance=hop_instances())
        def differential(instance):
            assert_hop_is_the_reference(mutant, instance)

        with pytest.raises(AssertionError, match="decision differs"):
            differential()

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

    def test_prefix_len_matches_identifier(self):
        ring = _random_ring(12, seed=7)
        rng = derive_rng(7, "keys")
        for _ in range(40):
            node = rng.randrange(ring.n)
            key = ring.space.random_identifier(rng)
            assert ring.prefix_len(node, key) == ring.ids[node].prefix_match_len(key)
        for node in range(ring.n):  # a key equal to the node's own id
            assert ring.prefix_len(node, ring.ids[node]) == ring.space.num_digits


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
        # from one owner per pass up to the whole ring in one: a pass costs
        # one int64 per (owner, node)
        block_bytes = min(owners_per_block, n) * 8 * n
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


def _deep_prefix_ring(space: IdSpace, seed: int) -> PastryRing:
    """A comb of ids around a root id (node 0): for every prefix length
    ``d`` below M − 1 (a sample of them in a 512-digit space), two ids that
    copy the root's first ``d`` digits and differ at digit ``d``, and at
    M − 1 every other last digit.  Random ids stop the column scan after
    about log_base(n) + 1 columns; these pairs keep it going to M − 1."""
    rng = derive_rng(seed, "deep-prefix-ids")
    num_digits, base = space.num_digits, space.base
    root = [rng.randrange(base) for _ in range(num_digits)]
    depths = range(num_digits - 1)
    if num_digits > 64:
        depths = sorted({*rng.sample(range(num_digits - 2), 40), num_digits - 2})
    digit_strings = set()
    for depth in depths:
        for _ in range(2):
            other = rng.choice([c for c in range(base) if c != root[depth]])
            suffix = [rng.randrange(base) for _ in range(num_digits - depth - 1)]
            digit_strings.add((*root[:depth], other, *suffix))
    digit_strings.update((*root[:-1], c) for c in range(base) if c != root[-1])
    others = sorted(digit_strings - {tuple(root)})
    return PastryRing([space.from_digits(d) for d in [root, *others]])


class TestPrefixColumnScan:
    """The shared-prefix column scan: against the per-owner scan on rings
    whose ids share up to M − 1 leading digits, in the 16-bit test space,
    the paper's 160-bit space and a 512-digit binary space (two-byte prefix
    lengths); and the memory a ``paper``-sized build holds besides its
    tables."""

    @pytest.mark.parametrize(
        "space",
        [
            IdSpace(bits=16, digit_bits=4),
            IdSpace(bits=160, digit_bits=4),
            IdSpace(bits=512, digit_bits=1),
        ],
        ids=["16-bit", "160-bit", "512-digit"],
    )
    @pytest.mark.parametrize("kind", ["shuffle", "constant", "underlay"])
    @pytest.mark.parametrize("owners_per_block", [1, 7, None])
    def test_tables_are_the_scan(self, monkeypatch, space, kind, owners_per_block):
        seed = space.num_digits
        ring = _deep_prefix_ring(space, seed)
        n, num_digits = ring.n, space.num_digits
        assert max(ring.prefix_len(0, key) for key in ring.ids[1:]) == num_digits - 1
        if owners_per_block is not None:
            monkeypatch.setattr(pastry_state, "_BUILD_BLOCK_BYTES", owners_per_block * 8 * n)
        assert_tables_are_the_scan(
            build_routing_tables, ring, _tie_forcing_latency(kind, n, seed), seed
        )

    def test_a_1000_node_underlay_build_stays_under_3_5_mib_transient(self, paper_space):
        """Tables of a 1000-node ring with underlay latencies, as a
        ``paper``-rung Pastry network builds them: the build's traced peak
        above the tables it returns (a ``(B, n, M)`` digit tensor per block
        took 6.5 MiB)."""
        underlay = TransitStubUnderlay.for_size(1000, seed=0)
        latency = UnderlayLatency(underlay, underlay.random_attachment(1000, seed=0))
        ring = PastryRing(paper_space.random_unique_identifiers(1000, derive_rng(0, "ids")))
        ring.digit_matrix  # the ring's own, built before the trace
        held, peak = traced_memory(lambda: build_routing_tables(ring, latency=latency, seed=0))
        assert peak - held < 3.5 * (1 << 20), (held, peak)


def _ranked(self_score, neighbor_ids, neighbor_scores):
    return compact_ranking(self_score, tuple(neighbor_ids), neighbor_scores)


def _decoded(ranked):
    """``(is_local_max, top, ids_by_rank, tier_ends)`` of a compact ranking:
    its positions read back through its neighbor tuple."""
    is_local_max, top, neighbors, order = ranked
    degree = len(neighbors)
    ids_by_rank = tuple(neighbors[p] for p in order[:degree])
    return is_local_max, top, ids_by_rank, tuple(order[degree:])


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
            )
            assert decision == scanned
            assert ranked_rng.getstate() == scan_rng.getstate()

    @pytest.mark.parametrize("seed", range(6))
    def test_a_wide_ranking_decides_as_the_scan(self, seed):
        """Degree 300, so ``order`` is a ``uint16`` view: routes that cover
        the top tiers send the walk through the positions."""
        rng = derive_rng(seed, "wide")
        neighbor_ids = rng.sample(range(10_000), 300)
        neighbor_scores = [rng.randrange(0, 8) for _ in neighbor_ids]
        ranked = _ranked(4, neighbor_ids, neighbor_scores)
        assert type(ranked[3]) is memoryview and ranked[3].format == "H"
        by_score = sorted(zip(neighbor_scores, neighbor_ids), reverse=True)
        for covered in (0, 1, 30, 60, 299, 300):
            route = (*(peer for _, peer in by_score[:covered]), 10_001)
            for max_flows, tie_break in ((3, "random"), (0, "random"), (2, "lowest-id")):
                scan_rng, ranked_rng = random.Random(seed), random.Random(seed)
                scanned = reference_decide(
                    4, neighbor_ids, neighbor_scores, set(route), max_flows, 1,
                    scan_rng, tie_break,
                )
                decision = decide_forwarding(
                    ranked, route, max_flows, 1, ranked_rng.sample, tie_break
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
                # not cached itself: the object's entry holds the ranked form
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
                assert type(entry[1]) is type(entry[2]) is tuple
                assert type(entry[3]) is bytes

    def test_each_object_is_scored_once_however_many_the_table_routes(self, monkeypatch):
        """150 objects on a 2,000-node overlay, each inserted and looked up
        twice, cost one full-population scoring each."""
        scorings = []
        scores_matrix = CommonDigitsMetric.scores_matrix

        def counted(metric, target_digits, matrix):
            scorings.append(target_digits.tobytes())
            return scores_matrix(metric, target_digits, matrix)

        monkeypatch.setattr(CommonDigitsMetric, "scores_matrix", counted)
        network = MPILNetwork(power_law_graph(2000, seed=4), seed=4)
        rng = derive_rng(4, "objects")
        objects = [network.random_object_id(rng) for _ in range(150)]
        for object_id in objects:
            network.insert(rng.randrange(2000), object_id)
        for _ in range(2):
            for object_id in objects:
                network.lookup(rng.randrange(2000), object_id)
        assert len(set(scorings)) == len(objects)
        assert len(scorings) == len(objects), f"{len(scorings)} scorings"

    def test_a_tiny_budget_drops_vectors_and_rankings_together(self, monkeypatch):
        overlay = gnp_random_graph(30, 0.2, seed=3)
        network = MPILNetwork(overlay, config=MPILConfig(), seed=3)
        rng = derive_rng(3, "targets")
        targets = [network.space.random_identifier(rng) for _ in range(3)]
        expected = {
            (node, target): network.metric_table.ranked_neighbors(node, target)
            for target in targets
            for node in range(overlay.n)
        }
        # no room at all: every new vector drops every entry
        table = NeighborMetricTable(overlay, network.ids)
        held = table.entry(targets[0])
        monkeypatch.setattr(cache, "CACHE_BYTES", 0)
        for _ in range(2):
            for target in targets:
                for node in range(overlay.n):
                    assert table.ranked_neighbors(node, target) == expected[node, target]
        # the first entry went whole: a new one starts with no rankings
        fresh = table.entry(targets[0])
        assert fresh is not held and len(fresh) == 0
        assert np.array_equal(fresh.vector, held.vector)
        # and the evicted one still answers right for whoever holds it
        assert held
        for node, ranked in held.items():
            assert ranked == expected[node, targets[0]]

    def test_an_insert_whose_entry_is_evicted_mid_request_is_unchanged(self, monkeypatch):
        overlay = gnp_random_graph(60, 0.1, seed=5)
        object_id = IdSpace().random_identifier(derive_rng(5, "object"))
        roomy = MPILNetwork(overlay, seed=5).insert(0, object_id)
        clear_all_caches()
        # each ranking miss first scores another object, as an overlapping
        # request would; with no room, that drops the entry this request
        # holds, which keeps routing on it
        monkeypatch.setattr(cache, "CACHE_BYTES", 0)
        others = derive_rng(5, "others")
        scores_with_self = NeighborMetricTable.scores_with_self

        def overlapped(table, node, target):
            table.entry(IdSpace().random_identifier(others))
            return scores_with_self(table, node, target)

        monkeypatch.setattr(NeighborMetricTable, "scores_with_self", overlapped)
        network = MPILNetwork(overlay, seed=5)
        assert network.insert(0, object_id) == roomy
        assert roomy.traffic > 1

    def test_a_cached_vector_is_read_only(self):
        overlay = gnp_random_graph(30, 0.2, seed=3)
        network = MPILNetwork(overlay, seed=3)
        table = network.metric_table
        target = network.space.random_identifier(derive_rng(3, "targets"))
        vector = table.scores_all(target)
        assert table.entry(target).vector is vector
        with pytest.raises(ValueError):
            vector[0] = 99
        with pytest.raises(ValueError):
            vector += 1
        oracle = NeighborMetricTable(overlay, network.ids)
        for node in range(overlay.n):
            assert table.ranked_neighbors(node, target) == oracle.ranked_neighbors(node, target)

    def test_clearing_the_caches_frees_a_table_without_a_collection(self):
        """An entry holding its table would be a cycle: every table
        ``clear_all_caches`` drops would live on until the cyclic
        collector ran."""
        gc.disable()
        try:
            network = MPILNetwork(gnp_random_graph(40, 0.2, seed=2), seed=2)
            object_id = network.random_object_id(derive_rng(2, "object"))
            network.insert(0, object_id)
            network.lookup(5, object_id)
            table = weakref.ref(network.metric_table)
            del network
            clear_all_caches()
            assert table() is None
        finally:
            gc.enable()

    @given(
        scores=st.lists(st.integers(-6, 6), max_size=40),
        score_span=st.sampled_from([1, 3, 13]),
        self_score=st.integers(-6, 6),
    )
    def test_a_compact_ranking_decodes_to_the_ranked_tiers(
        self, scores, score_span, self_score
    ):
        """Positions read back through the neighbor tuple are
        ``rank_by_score``'s ids and tier ends; the top tier and the verdict
        are its first tier and ``self_score >= `` its best score.  Covers no
        neighbors and all-equal scores."""
        scores = [score % score_span for score in scores]
        neighbors = tuple(range(500, 500 + 7 * len(scores), 7))
        ids_by_rank, tier_ends, tier_scores = rank_by_score(neighbors, scores)
        ranked = compact_ranking(self_score, neighbors, scores)
        assert ranked[2] is neighbors
        assert type(ranked[3]) is bytes
        top = ids_by_rank[: tier_ends[0]] if tier_ends else ()
        is_local_max = not tier_scores or self_score >= tier_scores[0]
        assert _decoded(ranked) == (is_local_max, top, ids_by_rank, tier_ends)

    @pytest.mark.parametrize("degree", [255, 256, 700])
    def test_the_order_buffer_widens_at_degree_256(self, degree):
        rng = derive_rng(degree, "scores")
        scores = [rng.randrange(0, 40) for _ in range(degree)]
        neighbors = tuple(rng.sample(range(10**5), degree))
        ranked = compact_ranking(0, neighbors, scores)
        ids_by_rank, tier_ends, tier_scores = rank_by_score(neighbors, scores)
        assert _decoded(ranked) == (
            0 >= tier_scores[0], ids_by_rank[: tier_ends[0]], ids_by_rank, tier_ends
        )
        order = ranked[3]
        if degree < 256:
            assert type(order) is bytes
        else:
            assert order.readonly and order.format == "H"
            assert order.nbytes == 2 * (degree + len(tier_ends))
            assert all(type(position) is int for position in order[:3])

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


class TestUnderlayLatencyReads:
    """``UnderlayLatency`` computes each read from the underlay's parts:
    no all-pairs matrix is held, and no row is kept per sender."""

    @staticmethod
    def _model(overlay_nodes):
        # more overlay nodes than stubs: attachment points repeat
        underlay = TransitStubUnderlay.for_size(60, seed=1)
        return underlay, UnderlayLatency(
            underlay, underlay.random_attachment(overlay_nodes, seed=2)
        )

    @pytest.mark.parametrize("overlay_nodes", [10, 80])
    def test_every_read_is_dijkstras_bit_for_bit(self, overlay_nodes):
        underlay, model = self._model(overlay_nodes)
        oracle, att = dijkstra_latencies(underlay), model.attachment
        shared = len(set(att)) < overlay_nodes
        assert shared == (overlay_nodes > len(underlay.stub_nodes))
        for src in range(overlay_nodes):
            for dst in range(overlay_nodes):
                value = model.latency(src, dst)
                assert type(value) is float
                assert value.hex() == float(oracle[att[src], att[dst]]).hex()
            assert model.latency(src, src).hex() == (0.0).hex()

    def test_block_is_the_stacked_reads(self):
        _underlay, model = self._model(10)
        for start, stop, n in [(0, 10, 10), (3, 7, 10), (2, 9, 6), (4, 4, 10), (0, 10, 0)]:
            block = model.latency_block(start, stop, n)
            assert block.shape == (stop - start, n)
            assert block.dtype == np.float64
            reads = [[model.latency(src, dst) for dst in range(n)] for src in range(start, stop)]
            assert block.tolist() == reads

    def test_out_of_range_is_a_configuration_error(self):
        _underlay, model = self._model(3)
        # (0, -1) read the last node's latency, (0, 3) was a bare IndexError
        for src, dst in [(0, -1), (-1, 0), (0, 3), (3, 0), (7, 7)]:
            with pytest.raises(ConfigurationError, match="attached"):
                model.latency(src, dst)
        for start, stop, n in [(0, 4, 3), (2, 1, 3), (-1, 2, 3), (0, 3, -1), (0, 3, 4)]:
            with pytest.raises(ConfigurationError, match="attached"):
                model.latency_block(start, stop, n)

    def test_the_paper_underlay_holds_under_1_5_mib(self):
        """Everything the perturbed testbed keeps for a 1,000-node overlay
        (underlay, attachment, latency model, regions), after reading
        every pair from 50 senders, and the build's peak: the dense
        all-pairs matrix alone was 8.2 MB (1,010² float64)."""

        def build_and_read():
            parts = perturbed._underlay_parts(1000, 0)
            latency = parts[2].latency
            for src in range(0, 1000, 20):
                for dst in range(1000):
                    latency(src, dst)
            return parts

        held, peak = traced_memory(build_and_read)
        assert held < 1.5 * (1 << 20), held
        assert peak < 3 * (1 << 20), peak

    def test_a_block_is_a_copy(self):
        _underlay, model = self._model(10)
        block = model.latency_block(0, 10, 10)
        block[:] = -1.0
        assert model.latency(0, 1) > 0.0
        assert (model.latency_block(0, 10, 10) >= 0.0).all()


class TestOneObjectPerValue:
    """The cold-built structures hold each value once: edge codes in the
    pairing model, one int per node in neighbor tuples and routing tables,
    one key tuple per routing-table cell, one byte per paper-space score."""

    def test_the_paper_overlay_builds_under_28_mib(self):
        """The pairing model keeps one int per edge, not a tuple (41 MiB)."""
        _held, peak = traced_memory(lambda: fixed_degree_random_graph(4000, 100))
        assert peak < 28 << 20

    def test_neighbor_tuples_share_one_int_per_node(self):
        overlay = fixed_degree_random_graph(4000, 100)
        table = MPILNetwork(overlay, seed=0).metric_table
        n, slots = overlay.n, overlay.adjacency_arrays()[1].shape[0]
        held, _peak = traced_memory(lambda: [table.neighbor_list(u) for u in range(n)])
        # a pointer per CSR slot; per node a tuple header and the returned
        # list's pointer (boxing a fresh int per slot held ~40 B a slot)
        assert held <= 8 * slots + 160 * n
        ints = overlay.node_ints
        for u in range(n):
            assert all(member is ints[v] for member, v in zip(
                table.neighbor_list(u), table._neighbors(u).tolist()
            ))
        # the overlay's own tuples gather from the same ints
        assert all(v is ints[v] for u in range(0, n, 97) for v in overlay.neighbors(u))

    def test_rankings_share_the_neighbor_tuple_and_node_ints(self):
        overlay = power_law_graph(4000, seed=0)
        table = MPILNetwork(overlay, seed=0).metric_table
        target = table.ids[0].space.random_identifier(derive_rng(0, "target"))
        ints = overlay.node_ints
        wide = 0
        for u in range(overlay.n):
            _verdict, top, neighbors, order = table.ranked_neighbors(u, target)
            assert neighbors is table.neighbor_list(u)
            assert all(member is ints[member] for member in top)
            wide += type(order) is memoryview
        # the power-law overlay's hubs take the wide buffer
        assert wide == sum(degree >= 256 for degree in overlay.degrees) > 0

    def test_a_ranking_at_degree_100_holds_under_400_bytes(self):
        """Every node of ``fixed_degree_random_graph(4000, 100)`` ranked
        against two objects: the new rankings, and nothing else, under
        ``tracemalloc`` (ids tuple, tier ends and tier scores held ~1,160 B
        a ranking)."""
        table, nodes, targets = self._warm_degree_100_table()
        held, _peak = traced_memory(
            lambda: [table.ranked_neighbors(u, t) for t in targets for u in nodes]
        )
        rankings = len(targets) * len(nodes)
        # less the returned list's pointer to each ranking
        assert (held - 8 * rankings) / rankings < 400

    @staticmethod
    def _warm_degree_100_table():
        """A degree-100 table with every neighbor tuple and two objects'
        vectors cached, and its nodes as the shared ints the routing
        drivers key rankings by."""
        overlay = fixed_degree_random_graph(4000, 100)
        table = MPILNetwork(overlay, seed=0).metric_table
        nodes = overlay.node_ints.tolist()
        for u in nodes:
            table.neighbor_list(u)
        rng = derive_rng(0, "targets")
        targets = [table.ids[0].space.random_identifier(rng) for _ in range(2)]
        for target in targets:
            table.entry(target)
        return table, nodes, targets

    def test_routing_tables_share_cell_keys_and_node_ints(self, paper_space):
        ids = paper_space.random_unique_identifiers(600, derive_rng(5, "ids"))
        tables = build_routing_tables(PastryRing(ids), seed=5)
        keys = [key for table in tables for key in table]
        values = [node for table in tables for node in table.values()]
        assert len({id(key) for key in keys}) == len(set(keys)) > 16
        assert len({id(node) for node in values}) == len(set(values)) > 257

    @pytest.mark.parametrize("metric_name", ["common-digits", "prefix", "suffix"])
    def test_paper_space_scores_are_one_byte(self, paper_space, metric_name):
        overlay = gnp_random_graph(40, 0.2, seed=2)
        ids = paper_space.random_unique_identifiers(40, derive_rng(2, "ids"))
        table = NeighborMetricTable(overlay, ids, metric=metric_by_name(metric_name))
        vector = table.scores_all(ids[3])
        assert vector.dtype == np.uint8
        assert vector[3] == 40

    @pytest.mark.parametrize("metric_name", ["common-digits", "prefix", "suffix"])
    def test_512_digits_score_512(self, metric_name):
        """The digit count is not bounded by a byte: 512 binary digits."""
        space = IdSpace(bits=512, digit_bits=1)
        overlay = gnp_random_graph(12, 0.3, seed=1)
        ids = space.random_unique_identifiers(12, derive_rng(1, "ids"))
        metric = metric_by_name(metric_name)
        vector = NeighborMetricTable(overlay, ids, metric=metric).scores_all(ids[0])
        assert vector[0] == 512 == metric.score(ids[0], ids[0])
        assert vector.dtype == np.uint16
        assert vector.tolist() == [metric.score(ids[0], other) for other in ids]


class TestOneHolderOfAdjacency:
    """The overlay holds its adjacency once: a metric table keeps no copy
    of the CSR and no neighbor tuples of its own.  Bounds fixed before the
    change was measured; the tables that copied read 3.27 and 13.3 MiB."""

    @staticmethod
    def _overlay_and_ids():
        overlay = fixed_degree_random_graph(4000, 100)
        overlay.node_ints  # the overlay's own, built before any trace
        ids = IdSpace().random_unique_identifiers(overlay.n, derive_rng(0, "ids"))
        return overlay, ids

    def test_a_table_over_the_paper_overlay_holds_under_half_a_mib(self):
        overlay, ids = self._overlay_and_ids()
        held, _peak = traced_memory(lambda: NeighborMetricTable(overlay, ids))
        assert held < 1 << 19

    def test_two_tables_share_the_overlay_neighbor_tuples(self):
        overlay, ids = self._overlay_and_ids()

        def build():
            tables = (
                NeighborMetricTable(overlay, ids),
                NeighborMetricTable(overlay, ids, metric=metric_by_name("prefix")),
            )
            for u in range(overlay.n):
                for table in tables:
                    table.neighbor_list(u)
            return tables

        held, _peak = traced_memory(build)
        assert held < 5 << 20
        table_a, table_b = build()
        for u in range(overlay.n):
            assert table_a.neighbor_list(u) is table_b.neighbor_list(u) is overlay.neighbors(u)

    def test_a_static_run_leaves_nothing_behind_after_clear_all_caches(self):
        """The bench's ``static`` experiments on its 4000-node graph (20
        requests, not 100, to stay quick under ``tracemalloc``): once the
        caches are cleared, the traced memory is back within 1 MiB of where
        it started."""

        def run_all(nodes, requests):
            scale = get_scale("default").evolve(
                name="static-leak",
                static_node_counts=(nodes,),
                static_graphs=1,
                static_ops=requests,
            )
            for experiment in ("fig9", "fig10", "tab1", "tab2", "tab3"):
                api.run(experiment, scale=scale, seed=0)
            clear_all_caches()
            gc.collect()

        run_all(300, 10)  # imports and one-time module state, outside the trace
        held, _peak = traced_memory(lambda: run_all(4000, 20))
        assert held < 1 << 20


class TestBoundedConstruction:
    """Each stage of the paper's random overlay (4000 × 100, a finished CSR
    of 3.1 MiB) peaks at a small multiple of that CSR under ``tracemalloc``.
    Bounds fixed before the lean stages were measured; the stages they
    replaced read 20.0, 15.6 and 10.0 MiB here."""

    N, DEGREE = 4000, 100

    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        indptr, indices = fixed_degree_random_graph(self.N, self.DEGREE).adjacency_arrays()
        return indptr.copy(), indices.copy()

    def test_the_pairing_model_peaks_under_10_mib(self):
        rng = derive_rng32(0, "random-regular", self.N, self.DEGREE, 0)
        _held, peak = traced_memory(
            lambda: random_graphs._pairing_model(self.N, self.DEGREE, rng)
        )
        assert peak < 10 << 20

    def test_undirected_csr_peaks_under_6_mib(self):
        indptr, indices = self._csr()
        owners = np.repeat(np.arange(self.N), np.diff(indptr))
        upper = owners < indices
        sources, targets = owners[upper], indices[upper]
        del owners, upper
        _held, peak = traced_memory(lambda: undirected_csr(self.N, sources, targets))
        assert peak < 6 << 20

    def test_from_csr_validation_peaks_under_8_mib(self):
        indptr, indices = self._csr()
        _held, peak = traced_memory(lambda: OverlayGraph.from_csr(indptr, indices))
        assert peak < 8 << 20


class TestBoundedCache:
    """The one process-wide LRU and its resident-set ceiling."""

    def _build(self, key, built):
        def build():
            built.append(key)
            return object()

        return get_or_build(key, build)

    def test_lru_order_spans_every_cache(self):
        built = []
        for key in (("overlay", 1), ("node-ids", 1), ("underlay", 1)):
            self._build(key, built)
        self._build(("overlay", 1), built)  # a hit refreshes it
        self._build(("metric-table", 1), built)
        self._build(("node-ids", 1), built)
        assert built == [("overlay", 1), ("node-ids", 1), ("underlay", 1), ("metric-table", 1)]
        assert list(cache._lru) == [
            ("underlay", 1),
            ("overlay", 1),
            ("metric-table", 1),
            ("node-ids", 1),
        ]

    def test_a_zero_ceiling_keeps_only_the_newest_entry(self, monkeypatch):
        """Every insert evicts all others, and a hit evicts nothing."""
        monkeypatch.setattr(cache, "CACHE_BYTES", 0)
        built = []
        for key in (("overlay", 1), ("node-ids", 1), ("underlay", 1)):
            self._build(key, built)
            assert list(cache._lru) == [key]
        self._build(("underlay", 1), built)
        self._build(("overlay", 1), built)
        assert built == [("overlay", 1), ("node-ids", 1), ("underlay", 1), ("overlay", 1)]
        assert list(cache._lru) == [("overlay", 1)]

    def test_a_lone_value_over_the_ceiling_stays_and_says_so(self, monkeypatch):
        """The answer that tells a metric table to drop its memo: over the
        ceiling with nothing else left to drop."""
        built = []
        value = self._build(("overlay", 1), built)
        assert cache.make_room(value) is False
        monkeypatch.setattr(cache, "CACHE_BYTES", 0)
        assert cache.make_room(value) is True
        assert list(cache._lru) == [("overlay", 1)]
        assert self._build(("overlay", 1), built) is value
        assert built == [("overlay", 1)]

    def test_eviction_rereads_the_resident_set_after_each_drop(self, monkeypatch):
        """A process whose resident set falls 1 MiB an entry dropped stops
        dropping as soon as it is under the ceiling."""
        monkeypatch.setattr(cache, "CACHE_BYTES", 5 << 20)
        monkeypatch.setattr(cache, "resident_bytes", lambda: (len(cache._lru) + 2) << 20)
        built = []
        for index in range(6):
            self._build(("overlay", index), built)
        assert list(cache._lru) == [("overlay", 3), ("overlay", 4), ("overlay", 5)]

    def test_without_a_resident_set_nothing_is_evicted(self, monkeypatch):
        monkeypatch.setattr(cache, "CACHE_BYTES", 0)
        monkeypatch.setattr(cache, "resident_bytes", lambda: None)
        built = []
        for index in range(4):
            self._build(("overlay", index), built)
        network = MPILNetwork(gnp_random_graph(30, 0.2, seed=1), seed=1)
        rng = derive_rng(1, "objects")
        for _ in range(3):
            network.insert(rng.randrange(30), network.random_object_id(rng))
        assert len(cache._lru) == 6
        assert len(network.metric_table._entries) == 3

    @pytest.mark.parametrize("experiment", ["fig9", "fig10", "fig11"])
    def test_eviction_never_reaches_a_byte(self, experiment, monkeypatch):
        """Under a zero ceiling every insert evicts every other entry and
        every new vector drops its table's memo; the results are a roomy
        run's, byte for byte."""

        def digest():
            result = api.run(experiment, scale="smoke", seed=1)
            payload = json.dumps(result.to_dict(), sort_keys=True).encode()
            return hashlib.sha256(payload).hexdigest()

        roomy = digest()
        clear_all_caches()
        monkeypatch.setattr(cache, "CACHE_BYTES", 0)
        assert digest() == roomy

    def test_clear_all_caches_empties_the_lru(self):
        built = []
        self._build(("overlay", 1), built)
        MPILNetwork(gnp_random_graph(30, 0.2, seed=1), seed=1)
        assert len(cache._lru) == 3
        clear_all_caches()
        assert len(cache._lru) == 0
        self._build(("overlay", 1), built)
        assert built == [("overlay", 1)] * 2

    def test_get_or_build_calls_factory_once(self):
        calls = []

        def factory() -> object:
            calls.append(1)
            return object()

        assert get_or_build(("k",), factory) is get_or_build(("k",), factory)
        assert len(calls) == 1

    def test_fig9_then_fig10_builds_each_overlay_once(self, monkeypatch):
        """18 graphs a seed (3 sizes x 3 graphs x 2 families), more than
        the old 12-entry overlay cache held: fig10 reads every graph fig9
        built."""
        builds = collections.Counter()
        for family, generate in list(workloads.FAMILIES.items()):

            def counted(n, seed, family=family, generate=generate):
                builds[family, n, seed] += 1
                return generate(n, seed)

            monkeypatch.setitem(workloads.FAMILIES, family, counted)
        register_scale(
            get_scale("smoke").evolve(
                name="cache-rung",
                static_node_counts=(100, 200, 300),
                static_graphs=3,
                static_ops=5,
            )
        )
        try:
            for experiment in ("fig9", "fig10"):
                api.run(experiment, scale="cache-rung", seed=0)
        finally:
            unregister_scale("cache-rung")
        assert len(builds) == 18
        assert set(builds.values()) == {1}


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