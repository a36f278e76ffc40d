"""Unit and property tests for identifier spaces and identifiers."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.identifiers import Identifier, IdSpace
from repro.errors import IdSpaceError

SMALL = IdSpace(bits=16, digit_bits=4)
BINARY = IdSpace(bits=4, digit_bits=1)


class TestIdSpace:
    def test_paper_default_dimensions(self):
        space = IdSpace()
        assert space.bits == 160
        assert space.digit_bits == 4
        assert space.num_digits == 40
        assert space.base == 16

    def test_base4_dimensions(self):
        space = IdSpace(bits=160, digit_bits=2)
        assert space.num_digits == 80
        assert space.base == 4

    @pytest.mark.parametrize(
        "bits,digit_bits",
        [(0, 1), (-8, 4), (10, 3), (8, 0), (8, 9)],
    )
    def test_invalid_dimensions_rejected(self, bits, digit_bits):
        with pytest.raises(IdSpaceError):
            IdSpace(bits=bits, digit_bits=digit_bits)

    def test_from_digits_round_trip(self):
        identifier = BINARY.from_digits([1, 0, 1, 1])
        assert identifier.value == 0b1011
        assert list(identifier.digits) == [1, 0, 1, 1]

    def test_from_digits_validates_length_and_range(self):
        with pytest.raises(IdSpaceError):
            BINARY.from_digits([1, 0, 1])
        with pytest.raises(IdSpaceError):
            BINARY.from_digits([1, 0, 1, 2])

    def test_from_hex(self):
        identifier = SMALL.from_hex("beef")
        assert identifier.value == 0xBEEF
        assert identifier.to_hex() == "beef"

    def test_value_range_enforced(self):
        with pytest.raises(IdSpaceError):
            SMALL.identifier(1 << 16)
        with pytest.raises(IdSpaceError):
            SMALL.identifier(-1)

    def test_random_unique_identifiers_are_unique(self):
        rng = random.Random(7)
        ids = BINARY.random_unique_identifiers(16, rng)
        assert len({i.value for i in ids}) == 16

    def test_random_unique_identifiers_overflow(self):
        with pytest.raises(IdSpaceError):
            BINARY.random_unique_identifiers(17, random.Random(0))

    def test_digit_of(self):
        assert SMALL.digit_of(0xBEEF, 0) == 0xB
        assert SMALL.digit_of(0xBEEF, 3) == 0xF
        with pytest.raises(IdSpaceError):
            SMALL.digit_of(0xBEEF, 4)


class TestIdentifier:
    def test_paper_figure3_examples(self):
        """Figure 3: metric(1001, 1011) = 3 and metric(1001, 0010) = 1."""
        a = BINARY.from_digits([1, 0, 0, 1])
        assert a.common_digits(BINARY.from_digits([1, 0, 1, 1])) == 3
        assert a.common_digits(BINARY.from_digits([0, 0, 1, 0])) == 1

    def test_prefix_and_suffix_match(self):
        a = SMALL.from_hex("ab12")
        assert a.prefix_match_len(SMALL.from_hex("ab99")) == 2
        assert a.prefix_match_len(SMALL.from_hex("ab12")) == 4
        assert a.suffix_match_len(SMALL.from_hex("9912")) == 2
        assert a.suffix_match_len(SMALL.from_hex("ffff")) == 0

    def test_circular_distance_wraps(self):
        lo = SMALL.identifier(1)
        hi = SMALL.identifier(SMALL.max_value)
        assert lo.circular_distance(hi) == 2

    def test_cross_space_operations_rejected(self):
        a = SMALL.identifier(1)
        b = BINARY.identifier(1)
        with pytest.raises(IdSpaceError):
            a.common_digits(b)
        with pytest.raises(IdSpaceError):
            a < b

    def test_ordering_and_hash(self):
        a, b = SMALL.identifier(5), SMALL.identifier(9)
        assert a < b
        assert a <= a
        assert a == SMALL.identifier(5)
        assert hash(a) == hash(SMALL.identifier(5))
        assert a != 5

    def test_repr_small_space_shows_digits(self):
        assert "1011" in repr(BINARY.from_digits([1, 0, 1, 1]))


@given(st.integers(0, SMALL.max_value), st.integers(0, SMALL.max_value))
def test_common_digits_matches_xor_formulation(x, y):
    """Section 4.1: the metric equals the number of zero digits in the XOR."""
    a, b = SMALL.identifier(x), SMALL.identifier(y)
    assert a.common_digits(b) == a.common_digits_via_xor(b)


@given(st.integers(0, SMALL.max_value), st.integers(0, SMALL.max_value))
def test_common_digits_symmetric_and_bounded(x, y):
    a, b = SMALL.identifier(x), SMALL.identifier(y)
    value = a.common_digits(b)
    assert value == b.common_digits(a)
    assert 0 <= value <= SMALL.num_digits
    assert a.common_digits(a) == SMALL.num_digits


@given(st.integers(0, SMALL.max_value), st.integers(0, SMALL.max_value))
def test_prefix_match_consistent_with_digits(x, y):
    a, b = SMALL.identifier(x), SMALL.identifier(y)
    k = a.prefix_match_len(b)
    assert a.digits[:k] == b.digits[:k]
    if k < SMALL.num_digits:
        assert a.digits[k] != b.digits[k]


@given(st.integers(0, SMALL.max_value))
def test_digits_round_trip(x):
    a = SMALL.identifier(x)
    assert SMALL.from_digits(list(a.digits)).value == x
