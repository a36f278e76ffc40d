"""Tests for the Section-5 analysis, including Monte-Carlo cross-checks."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis import (
    expected_hops_to_local_maximum,
    expected_local_maxima,
    expected_local_maxima_regular,
    expected_replicas_complete,
    prob_at_most_k_common,
    prob_k_common,
    prob_less_than_k_common,
    prob_local_maximum,
    prob_no_common_digits,
)
from repro.core.identifiers import IdSpace
from repro.errors import ConfigurationError
from repro.overlay.random_graphs import random_regular_graph

PAPER = IdSpace(bits=160, digit_bits=4)
BASE4 = IdSpace(bits=160, digit_bits=2)
SMALL = IdSpace(bits=12, digit_bits=2)  # M=6 digits, base 4


class TestDistributions:
    @pytest.mark.parametrize("space", [PAPER, BASE4, IdSpace(bits=64, digit_bits=1)],
                             ids=["M=40,base=16", "M=80,base=4", "M=64,base=2"])
    def test_the_table_is_scipys_binomial(self, space):
        """scipy is the oracle, off the support included: A is the pmf, B
        the cdf one below, D the cdf."""
        stats = pytest.importorskip("scipy.stats")
        oracle = stats.binom(space.num_digits, 1.0 / space.base)
        ks = np.arange(-2, space.num_digits + 3)
        for ours, theirs in (
            (prob_k_common(space, ks), oracle.pmf(ks)),
            (prob_less_than_k_common(space, ks), oracle.cdf(ks - 1)),
            (prob_at_most_k_common(space, ks), oracle.cdf(ks)),
        ):
            np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=0)
        for k in (-1, 0, 3, space.num_digits, space.num_digits + 1):
            assert prob_k_common(space, k) == pytest.approx(oracle.pmf(k), rel=1e-12)
            assert prob_at_most_k_common(space, k) == pytest.approx(oracle.cdf(k), rel=1e-12)

    def test_pmf_sums_to_one(self):
        ks = np.arange(0, SMALL.num_digits + 1)
        assert float(np.sum(prob_k_common(SMALL, ks))) == pytest.approx(1.0)

    def test_cdf_relations(self):
        for k in range(SMALL.num_digits + 1):
            below = prob_less_than_k_common(SMALL, k)
            at_most = prob_at_most_k_common(SMALL, k)
            assert at_most == pytest.approx(below + prob_k_common(SMALL, k))

    def test_paper_no_common_digit_probability(self):
        """Section 4.2: (3/4)^80 ≈ 1.0113e-10 for 160-bit base-4 IDs."""
        assert prob_no_common_digits(BASE4) == pytest.approx(1.0113e-10, rel=1e-3)

    def test_no_common_prefix_binary_statement(self):
        """Section 4.2: P(no common first digit) = 0.75 base-4, 0.5 binary."""
        assert prob_no_common_digits(IdSpace(bits=2, digit_bits=2)) == 0.75
        assert prob_no_common_digits(IdSpace(bits=1, digit_bits=1)) == 0.5


class TestLocalMaximaFormulas:
    def test_degree_zero_always_local_max(self):
        assert prob_local_maximum(PAPER, 0) == 1.0

    def test_decreasing_in_degree(self):
        values = [prob_local_maximum(PAPER, d) for d in (1, 10, 50, 100)]
        assert values == sorted(values, reverse=True)

    def test_figure7_magnitudes(self):
        """Figure 7 endpoints: ~N/(d+1) scaling, ~90 maxima for N=16000,
        d=100 and a few hundred for d=10."""
        assert expected_local_maxima_regular(PAPER, 16000, 100) == pytest.approx(
            90, rel=0.15
        )
        assert 200 < expected_local_maxima_regular(PAPER, 4000, 10) < 420

    def test_hops_is_inverse_probability(self):
        c = prob_local_maximum(PAPER, 40)
        assert expected_hops_to_local_maximum(PAPER, 40) == pytest.approx(1.0 / c)

    def test_mixture_matches_regular_for_point_distribution(self):
        mixture = expected_local_maxima(PAPER, 5000, {30: 1.0})
        assert mixture == pytest.approx(expected_local_maxima_regular(PAPER, 5000, 30))

    def test_degree_distribution_must_normalise(self):
        with pytest.raises(ConfigurationError):
            expected_local_maxima(PAPER, 100, {3: 0.4, 4: 0.4})

    def test_negative_degree_rejected(self):
        with pytest.raises(ConfigurationError):
            prob_local_maximum(PAPER, -1)
        with pytest.raises(ConfigurationError):
            expected_local_maxima_regular(PAPER, 0, 5)


class TestFigure8:
    def test_base4_matches_paper_range(self):
        """The paper plots 1.55-1.63 for N = 2000..16000 (base-4 digits)."""
        values = [expected_replicas_complete(BASE4, n) for n in (2000, 8000, 16000)]
        assert 1.50 < values[0] < 1.56
        assert 1.57 < values[1] < 1.62
        assert 1.60 < values[2] < 1.65
        assert values == sorted(values)

    def test_single_node(self):
        assert expected_replicas_complete(PAPER, 1) == 1.0

    def test_at_least_one_expected_maximum(self):
        for n in (10, 100, 5000):
            assert expected_replicas_complete(PAPER, n) >= 1.0


class TestMonteCarloAgreement:
    def test_regular_topology_local_maxima(self):
        """Empirical strict-local-maxima counts on random regular graphs
        match N*C within sampling error."""
        n, d = 400, 8
        overlay = random_regular_graph(n, d, seed=13)
        rng = random.Random(13)
        trials = 40
        counts = []
        for _ in range(trials):
            message = SMALL.random_identifier(rng)
            scores = [
                SMALL.random_identifier(rng).common_digits(message) for _ in range(n)
            ]
            count = sum(
                1
                for node in range(n)
                if all(scores[node] > scores[v] for v in overlay.neighbors(node))
            )
            counts.append(count)
        empirical = sum(counts) / trials
        predicted = expected_local_maxima_regular(SMALL, n, d)
        assert empirical == pytest.approx(predicted, rel=0.2)

    def test_complete_topology_replicas(self):
        """Empirical count of nodes that are >= every other node matches
        N * sum A * D^(N-1)."""
        n = 60
        rng = random.Random(14)
        trials = 300
        total = 0
        for _ in range(trials):
            message = SMALL.random_identifier(rng)
            scores = [
                SMALL.random_identifier(rng).common_digits(message) for _ in range(n)
            ]
            top = max(scores)
            total += sum(1 for s in scores if s == top)
        empirical = total / trials
        predicted = expected_replicas_complete(SMALL, n)
        assert empirical == pytest.approx(predicted, rel=0.15)
