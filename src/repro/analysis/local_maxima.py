"""Section 5 formulas.

With an m-bit ID space in base-2^b (M = m/b digits), the number of digits a
uniformly random ID shares with a fixed message ID is Binomial(M, 1/2^b).
The paper defines, for a node of degree d:

- A(k) — probability a node is k-common with the message ID:
  ``A = C(M,k) (1/2^b)^k ((2^b-1)/2^b)^(M-k)``;
- B(k) — probability another node is j-common for some j < k (CDF at k-1);
- C — probability a node is a local maximum:
  ``C = sum_k A(k) * B(k)^d``;
- D(k) — like B but including k (CDF at k), used for complete topologies.

Expected local maxima in an N-node overlay with degree distribution P(d) is
``N * sum_d P(d) * C_d`` (Figure 7 uses the regular special case); expected
replicas on the complete topology is ``N * sum_k A(k) * D(k)^(N-1)``
(Figure 8); expected random-walk hops to a local maximum is ``1/C``.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Mapping

import numpy as np

from repro.core.identifiers import IdSpace
from repro.errors import ConfigurationError


@functools.lru_cache(maxsize=None)
def _digit_match_table(num_digits: int, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Binomial(M, 1/2^b) pmf and cdf at k = -1..M+1, read at ``k + 1``.

    Both are ratios of integers, ``C(M,k) (2^b-1)^(M-k) / 2^(bM)`` and its
    running sum, so each entry is correctly rounded and the cdf is exactly
    1 from k = M on.
    """
    counts = [
        math.comb(num_digits, k) * (base - 1) ** (num_digits - k)
        for k in range(num_digits + 1)
    ]
    total = base**num_digits
    pmf = np.array([0.0, *(count / total for count in counts), 0.0])
    cdf = np.array([0.0, *(part / total for part in itertools.accumulate(counts)), 1.0])
    pmf.flags.writeable = cdf.flags.writeable = False
    return pmf, cdf


def _read(space: IdSpace, k, cumulative: bool) -> np.ndarray | float:
    """The pmf (0 off the integers) or the cdf at ``k``, a number or an array."""
    pmf, cdf = _digit_match_table(space.num_digits, space.base)
    k = np.asarray(k, dtype=float)
    below = np.floor(k)
    index = np.clip(below, -1, space.num_digits + 1).astype(int) + 1
    values = (cdf if cumulative else pmf)[index]
    if not cumulative:
        values = np.where(below == k, values, 0.0)
    return values[()]


def prob_k_common(space: IdSpace, k) -> np.ndarray | float:
    """A(k): probability a random ID shares exactly ``k`` digits."""
    return _read(space, k, cumulative=False)


def prob_less_than_k_common(space: IdSpace, k) -> np.ndarray | float:
    """B(k): probability a random ID shares strictly fewer than ``k`` digits."""
    return _read(space, np.asarray(k) - 1, cumulative=True)


def prob_at_most_k_common(space: IdSpace, k) -> np.ndarray | float:
    """D(k): probability a random ID shares at most ``k`` digits."""
    return _read(space, k, cumulative=True)


def prob_no_common_digits(space: IdSpace) -> float:
    """Probability two random IDs share no digit position at all.

    Section 4.2 quotes this as (3/4)^80 ≈ 1.01e-10 for the 160-bit, base-4
    space.
    """
    return float(((space.base - 1) / space.base) ** space.num_digits)


def prob_local_maximum(space: IdSpace, degree: int) -> float:
    """C: probability a node of the given degree is a local maximum."""
    if degree < 0:
        raise ConfigurationError(f"degree must be non-negative, got {degree}")
    if degree == 0:
        return 1.0
    ks = np.arange(1, space.num_digits + 1)
    a = prob_k_common(space, ks)
    b = prob_less_than_k_common(space, ks)
    # b^degree via exp(d*log b), guarding b == 0 (k = min support) -> term 0.
    with np.errstate(divide="ignore"):
        log_b = np.log(b, out=np.full_like(b, -np.inf), where=b > 0)
    powered = np.exp(degree * log_b)
    return float(np.sum(a * powered))


def expected_local_maxima_regular(space: IdSpace, n: int, degree: int) -> float:
    """Expected number of local maxima in a random d-regular overlay
    (Figure 7)."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return n * prob_local_maximum(space, degree)


def expected_local_maxima(
    space: IdSpace, n: int, degree_distribution: Mapping[int, float]
) -> float:
    """Expected local maxima for an arbitrary degree distribution:
    ``N * sum_d P(d) * C_d``."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    total_probability = sum(degree_distribution.values())
    if not np.isclose(total_probability, 1.0, atol=1e-6):
        raise ConfigurationError(
            f"degree distribution sums to {total_probability}, expected 1"
        )
    acc = 0.0
    for degree, probability in degree_distribution.items():
        if probability < 0:
            raise ConfigurationError("degree probabilities must be non-negative")
        acc += probability * prob_local_maximum(space, degree)
    return n * acc


def expected_hops_to_local_maximum(space: IdSpace, degree: int) -> float:
    """Expected random-walk hops to reach a local maximum: 1/C (Section 5.1,
    assuming uniformly distributed maxima)."""
    c = prob_local_maximum(space, degree)
    if c == 0.0:
        return float("inf")
    return 1.0 / c


def expected_replicas_complete(space: IdSpace, n: int) -> float:
    """Expected replicas on the complete topology (Figure 8):
    ``N * sum_k A(k) * D(k)^(N-1)``."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if n == 1:
        return 1.0
    ks = np.arange(1, space.num_digits + 1)
    a = prob_k_common(space, ks)
    d = prob_at_most_k_common(space, ks)
    with np.errstate(divide="ignore"):
        log_d = np.log(d, out=np.full_like(d, -np.inf), where=d > 0)
    powered = np.exp((n - 1) * log_d)
    return float(n * np.sum(a * powered))
