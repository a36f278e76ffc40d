"""The Section 5 closed forms against Monte-Carlo sampling.

The sampling helpers below are the oracle: they measure, by direct
sampling, the quantities the closed forms predict.  No library code reads
them, so they live here beside the tests that use them.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import expected_local_maxima_regular
from repro.core.identifiers import IdSpace
from repro.core.metric import NeighborMetricTable
from repro.errors import ConfigurationError
from repro.overlay.complete import complete_graph
from repro.overlay.graph import OverlayGraph
from repro.overlay.random_graphs import random_regular_graph
from repro.sim.rng import derive_rng

SMALL = IdSpace(bits=12, digit_bits=2)


def sample_local_maxima_count(
    overlay: OverlayGraph,
    space: IdSpace,
    rng: random.Random,
    strict: bool = True,
) -> int:
    """Draw fresh i.i.d. node IDs and one message ID, and count the local
    maxima of the common-digits metric (strict by default, matching the
    Section 5 formula's ``B = P(strictly fewer matches)``)."""
    message = space.random_identifier(rng)
    scores = [
        space.random_identifier(rng).common_digits(message)
        for _ in range(overlay.n)
    ]
    count = 0
    for node in range(overlay.n):
        neighbor_scores = [scores[v] for v in overlay.neighbors(node)]
        if not neighbor_scores:
            count += 1
        elif strict and scores[node] > max(neighbor_scores):
            count += 1
        elif not strict and scores[node] >= max(neighbor_scores):
            count += 1
    return count


def mean_local_maxima(
    overlay: OverlayGraph,
    space: IdSpace,
    trials: int,
    seed: object = 0,
    strict: bool = True,
) -> float:
    """Average :func:`sample_local_maxima_count` over ``trials`` draws."""
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    # derive_rng, not random.Random(hash(...)): str hashing is salted per
    # process (PYTHONHASHSEED), so a hash-based seed gives every
    # interpreter its own sampling trajectory for the same `seed`
    rng = derive_rng(seed, "mc-maxima")
    total = sum(
        sample_local_maxima_count(overlay, space, rng, strict=strict)
        for _ in range(trials)
    )
    return total / trials


def count_local_maxima_for_ids(
    overlay: OverlayGraph,
    table: NeighborMetricTable,
    object_id,
    strict: bool = False,
) -> int:
    """Count local maxima for a *fixed* assignment of node IDs (the
    overlay's actual identifiers), using the insertion rule by default
    (ties allowed, as replicas are placed)."""
    count = 0
    for node in range(overlay.n):
        scores = table.scores(node, object_id)
        self_score = table.self_score(node, object_id)
        if scores.size == 0:
            count += 1
            continue
        best = int(scores.max())
        if (self_score > best) if strict else (self_score >= best):
            count += 1
    return count


class TestSampling:
    def test_sample_count_in_range(self):
        overlay = random_regular_graph(100, 4, seed=0)
        count = sample_local_maxima_count(overlay, SMALL, random.Random(0))
        assert 0 <= count <= 100

    def test_mean_matches_closed_form(self):
        overlay = random_regular_graph(300, 6, seed=1)
        empirical = mean_local_maxima(overlay, SMALL, trials=60, seed=1)
        predicted = expected_local_maxima_regular(SMALL, 300, 6)
        assert empirical == pytest.approx(predicted, rel=0.2)

    def test_strict_leq_nonstrict(self):
        overlay = random_regular_graph(150, 4, seed=2)
        strict = mean_local_maxima(overlay, SMALL, trials=30, seed=2, strict=True)
        loose = mean_local_maxima(overlay, SMALL, trials=30, seed=2, strict=False)
        assert strict <= loose

    def test_trials_validated(self):
        overlay = random_regular_graph(20, 4, seed=3)
        with pytest.raises(ConfigurationError):
            mean_local_maxima(overlay, SMALL, trials=0)


class TestFixedIdCount:
    def test_complete_graph_counts_top_scorers(self):
        overlay = complete_graph(30)
        rng = random.Random(4)
        ids = [SMALL.random_identifier(rng) for _ in range(30)]
        table = NeighborMetricTable(overlay, ids)
        message = SMALL.random_identifier(rng)
        count = count_local_maxima_for_ids(overlay, table, message, strict=False)
        scores = [ids[v].common_digits(message) for v in range(30)]
        top = max(scores)
        assert count == sum(1 for s in scores if s == top)

    def test_matches_insertion_coverage(self):
        """Every replica an MPIL insert stores must sit at a (non-strict)
        local maximum, so the maxima count upper-bounds replica count."""
        from repro.core.config import MPILConfig
        from repro.core.network import MPILNetwork

        overlay = random_regular_graph(120, 6, seed=5)
        net = MPILNetwork(
            overlay,
            space=SMALL,
            config=MPILConfig(max_flows=30, per_flow_replicas=5),
            seed=5,
        )
        rng = random.Random(5)
        obj = net.random_object_id(rng)
        insert = net.insert(0, obj)
        maxima = count_local_maxima_for_ids(
            overlay, net.metric_table, obj, strict=False
        )
        assert insert.replica_count <= maxima
