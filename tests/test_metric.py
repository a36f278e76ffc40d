"""Tests for routing metrics and the vectorised neighbor metric table."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.identifiers import IdSpace, pack_digit_matrix
from repro.core.metric import (
    CommonDigitsMetric,
    NeighborMetricTable,
    PrefixLengthMetric,
    SuffixLengthMetric,
    common_digits,
    metric_by_name,
)
from repro.errors import ConfigurationError, RoutingError
from repro.overlay.random_graphs import ring_lattice_graph

SPACE = IdSpace(bits=16, digit_bits=4)
METRICS = [CommonDigitsMetric(), PrefixLengthMetric(), SuffixLengthMetric()]


def _random_ids(n, seed=0):
    rng = random.Random(seed)
    return SPACE.random_unique_identifiers(n, rng)


class TestScalarMetrics:
    def test_names(self):
        assert CommonDigitsMetric().name == "common-digits"
        assert PrefixLengthMetric().name == "prefix"
        assert SuffixLengthMetric().name == "suffix"

    def test_metric_by_name(self):
        assert isinstance(metric_by_name("common-digits"), CommonDigitsMetric)
        assert isinstance(metric_by_name("prefix"), PrefixLengthMetric)
        assert isinstance(metric_by_name("suffix"), SuffixLengthMetric)
        with pytest.raises(ConfigurationError):
            metric_by_name("hamming")

    def test_common_digits_helper(self):
        a, b = SPACE.from_hex("ab12"), SPACE.from_hex("ab92")
        assert common_digits(a, b) == 3

    def test_prefix_metric_scores(self):
        metric = PrefixLengthMetric()
        assert metric.score(SPACE.from_hex("abcd"), SPACE.from_hex("abff")) == 2
        assert metric.score(SPACE.from_hex("abcd"), SPACE.from_hex("abcd")) == 4

    def test_suffix_metric_scores(self):
        metric = SuffixLengthMetric()
        assert metric.score(SPACE.from_hex("abcd"), SPACE.from_hex("ffcd")) == 2
        assert metric.score(SPACE.from_hex("abcd"), SPACE.from_hex("abcf")) == 0


class TestNeighborMetricTable:
    def _table(self, metric, n=12, seed=3):
        overlay = ring_lattice_graph(n, k=2)
        ids = _random_ids(n, seed)
        return overlay, ids, NeighborMetricTable(overlay, ids, metric=metric)

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
    def test_vectorised_matches_scalar(self, metric):
        overlay, ids, table = self._table(metric)
        rng = random.Random(9)
        for _ in range(20):
            node = rng.randrange(overlay.n)
            target = SPACE.random_identifier(rng)
            scores = table.scores(node, target)
            expected = [metric.score(target, ids[v]) for v in overlay.neighbors(node)]
            assert scores.tolist() == expected

    def test_neighbor_list_alignment(self):
        overlay, _ids, table = self._table(CommonDigitsMetric())
        for node in range(overlay.n):
            assert table.neighbor_list(node) == overlay.neighbors(node)

    def test_self_score(self):
        overlay, ids, table = self._table(CommonDigitsMetric())
        target = SPACE.from_hex("1234")
        for node in range(overlay.n):
            assert table.self_score(node, target) == target.common_digits(ids[node])

    def test_id_count_mismatch_rejected(self):
        overlay = ring_lattice_graph(6, k=1)
        with pytest.raises(RoutingError):
            NeighborMetricTable(overlay, _random_ids(5))

    def test_scores_dtype_and_shape(self):
        overlay, _ids, table = self._table(CommonDigitsMetric())
        scores = table.scores(0, SPACE.from_hex("0000"))
        assert scores.shape == (overlay.degree(0),)
        assert np.issubdtype(scores.dtype, np.integer)


@given(st.integers(0, SPACE.max_value), st.integers(0, SPACE.max_value))
def test_prefix_vectorised_equals_scalar(x, y):
    metric = PrefixLengthMetric()
    a, b = SPACE.identifier(x), SPACE.identifier(y)
    matrix = pack_digit_matrix([b])
    assert metric.scores_matrix(pack_digit_matrix([a])[0], matrix)[0] == metric.score(a, b)


@given(st.integers(0, SPACE.max_value), st.integers(0, SPACE.max_value))
def test_suffix_vectorised_equals_scalar(x, y):
    metric = SuffixLengthMetric()
    a, b = SPACE.identifier(x), SPACE.identifier(y)
    matrix = pack_digit_matrix([b])
    assert metric.scores_matrix(pack_digit_matrix([a])[0], matrix)[0] == metric.score(a, b)
