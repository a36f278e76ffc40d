"""Identifier spaces and identifiers.

The paper assumes "an m-bit ID space with base-2^b representation, where
m = M*b for some constant M.  Thus, each ID is an M-character-wide string
with 2^b possible characters."  The evaluation uses m = 160 and b = 4
(matching Pastry); the worked examples in Figures 3–6 use 4-bit binary IDs.
Both are instances of :class:`IdSpace`.

``Identifier`` is immutable and caches its digit string (most-significant
digit first) as ``bytes``; :func:`pack_digit_matrix` joins a population's
digit strings into the one ``(n, M)`` ``uint8`` matrix the vectorised
neighbor-metric tables and Pastry table construction read.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Sequence

import numpy as np

from repro.errors import IdSpaceError

#: translation table for the C-speed digit decomposition below: a hex
#: rendering of the value *is* the digit string, modulo mapping each ASCII
#: digit character to its numeric value
_HEX_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


@dataclasses.dataclass(frozen=True)
class IdSpace:
    """An m-bit identifier space with base-2^b digits.

    Parameters
    ----------
    bits:
        Total identifier width m in bits (paper default: 160).
    digit_bits:
        Bits per digit b (paper default: 4, i.e. hexadecimal digits).

    >>> space = IdSpace(bits=4, digit_bits=1)
    >>> space.num_digits, space.base
    (4, 2)
    """

    bits: int = 160
    digit_bits: int = 4

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise IdSpaceError(f"bits must be positive, got {self.bits}")
        if not 1 <= self.digit_bits <= 8:
            raise IdSpaceError(
                f"digit_bits must be in [1, 8] so digits fit in a byte, got {self.digit_bits}"
            )
        if self.bits % self.digit_bits != 0:
            raise IdSpaceError(
                f"bits ({self.bits}) must be a multiple of digit_bits ({self.digit_bits})"
            )

    @property
    def num_digits(self) -> int:
        """M — the number of digits in an identifier."""
        return self.bits // self.digit_bits

    @property
    def base(self) -> int:
        """2^b — the number of possible values per digit."""
        return 1 << self.digit_bits

    @property
    def size(self) -> int:
        """Total number of identifiers: 2^bits."""
        return 1 << self.bits

    @property
    def max_value(self) -> int:
        return self.size - 1

    def identifier(self, value: int) -> "Identifier":
        """Wrap an integer as an :class:`Identifier` in this space."""
        return Identifier(value, self)

    def from_hex(self, text: str) -> "Identifier":
        """Parse a hexadecimal string (with or without ``0x`` prefix)."""
        return self.identifier(int(text, 16))

    def from_digits(self, digits: Sequence[int]) -> "Identifier":
        """Build an identifier from a most-significant-first digit sequence.

        >>> IdSpace(bits=4, digit_bits=1).from_digits([1, 0, 1, 1]).value
        11
        """
        if len(digits) != self.num_digits:
            raise IdSpaceError(
                f"expected {self.num_digits} digits, got {len(digits)}"
            )
        value = 0
        for digit in digits:
            if not 0 <= digit < self.base:
                raise IdSpaceError(f"digit {digit} out of range for base {self.base}")
            value = (value << self.digit_bits) | digit
        return self.identifier(value)

    def random_identifier(self, rng: random.Random) -> "Identifier":
        """Draw an identifier uniformly at random."""
        return self.identifier(rng.getrandbits(self.bits))

    def random_unique_identifiers(self, count: int, rng: random.Random) -> list["Identifier"]:
        """Draw ``count`` distinct identifiers uniformly at random.

        The paper generates node and object IDs as "random numbers picked
        from 160-bit ID space"; collisions there are vanishingly unlikely but
        the worked-example 4-bit spaces need explicit uniqueness.
        """
        if count > self.size:
            raise IdSpaceError(
                f"cannot draw {count} unique identifiers from a space of size {self.size}"
            )
        seen: set[int] = set()
        out: list[Identifier] = []
        while len(out) < count:
            value = rng.getrandbits(self.bits)
            if value in seen:
                continue
            seen.add(value)
            out.append(self.identifier(value))
        return out

    def digit_of(self, value: int, index: int) -> int:
        """The ``index``-th digit (0 = most significant) of a raw value."""
        if not 0 <= index < self.num_digits:
            raise IdSpaceError(f"digit index {index} out of range")
        shift = self.bits - (index + 1) * self.digit_bits
        return (value >> shift) & (self.base - 1)


class Identifier:
    """An immutable identifier within an :class:`IdSpace`.

    Identifiers compare and hash by ``(value, space)``.  Ordering comparisons
    require matching spaces and order by numeric value.
    """

    __slots__ = ("_value", "_space", "_digits")

    def __init__(self, value: int, space: IdSpace):
        if not 0 <= value <= space.max_value:
            raise IdSpaceError(
                f"value {value} out of range for {space.bits}-bit space"
            )
        self._value = value
        self._space = space
        num_digits = space.num_digits
        digit_bits = space.digit_bits
        # Decompose hex digits (every library space) at C speed: the
        # scale-ladder rungs mint 10^5-10^6 ids, so the per-id Python digit
        # loop was a measurable setup cost.
        if digit_bits == 4:
            self._digits = format(value, "0%dx" % num_digits).encode("ascii").translate(_HEX_DIGITS)
        else:
            digits = bytearray(num_digits)
            v = value
            mask = space.base - 1
            for i in range(num_digits - 1, -1, -1):
                digits[i] = v & mask
                v >>= digit_bits
            self._digits = bytes(digits)

    @property
    def value(self) -> int:
        return self._value

    @property
    def space(self) -> IdSpace:
        return self._space

    @property
    def digits(self) -> bytes:
        """Digit string, most-significant digit first, one digit per byte."""
        return self._digits

    def digit(self, index: int) -> int:
        return self._digits[index]

    # -- distances ---------------------------------------------------------

    def _require_same_space(self, other: "Identifier") -> None:
        if self._space != other._space:
            raise IdSpaceError("identifiers belong to different spaces")

    def common_digits(self, other: "Identifier") -> int:
        """MPIL routing metric: number of equal digits at equal positions.

        Paper Section 4.1: "For a given object ID and a neighboring peer's
        ID, the routing metric is simply the number of matching digits
        appearing in same positions."

        >>> sp = IdSpace(bits=4, digit_bits=1)
        >>> sp.from_digits([1,0,0,1]).common_digits(sp.from_digits([1,0,1,1]))
        3
        >>> sp.from_digits([1,0,0,1]).common_digits(sp.from_digits([0,0,1,0]))
        1
        """
        self._require_same_space(other)
        count = 0
        for a, b in zip(self._digits, other._digits):
            if a == b:
                count += 1
        return count

    def common_digits_via_xor(self, other: "Identifier") -> int:
        """Equivalent metric computed as the number of zero digits in the
        XOR of the two values ("the number of 0's in XOR product of the two
        ID's", Section 4.1).  Kept as an independent implementation; a
        property test asserts agreement with :meth:`common_digits`.
        """
        self._require_same_space(other)
        xor = self._value ^ other._value
        mask = self._space.base - 1
        count = 0
        for _ in range(self._space.num_digits):
            if xor & mask == 0:
                count += 1
            xor >>= self._space.digit_bits
        return count

    def prefix_match_len(self, other: "Identifier") -> int:
        """Number of leading digits shared with ``other`` (Pastry's metric)."""
        self._require_same_space(other)
        xor = self._value ^ other._value
        if xor == 0:
            return self._space.num_digits
        shared_bits = self._space.bits - xor.bit_length()
        return shared_bits // self._space.digit_bits

    def suffix_match_len(self, other: "Identifier") -> int:
        """Number of trailing digits shared with ``other`` (suffix routing)."""
        self._require_same_space(other)
        count = 0
        for a, b in zip(reversed(self._digits), reversed(other._digits)):
            if a != b:
                break
            count += 1
        return count

    def circular_distance(self, other: "Identifier") -> int:
        """Distance on the identifier ring (used by the Pastry substrate)."""
        self._require_same_space(other)
        d = abs(self._value - other._value)
        return min(d, self._space.size - d)

    # -- formatting / protocol ---------------------------------------------

    def to_hex(self) -> str:
        width = (self._space.bits + 3) // 4
        return format(self._value, f"0{width}x")

    def to_digit_string(self) -> str:
        """Digits joined with no separator (binary string for b=1 spaces)."""
        if self._space.base <= 10:
            return "".join(str(d) for d in self._digits)
        return ".".join(str(d) for d in self._digits)

    def __repr__(self) -> str:
        if self._space.bits <= 16:
            return f"Identifier({self.to_digit_string()})"
        return f"Identifier(0x{self.to_hex()})"

    def __str__(self) -> str:
        return self.to_digit_string() if self._space.bits <= 16 else self.to_hex()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Identifier):
            return NotImplemented
        return self._value == other._value and self._space == other._space

    def __hash__(self) -> int:
        return hash((self._value, self._space))

    def __lt__(self, other: "Identifier") -> bool:
        self._require_same_space(other)
        return self._value < other._value

    def __le__(self, other: "Identifier") -> bool:
        self._require_same_space(other)
        return self._value <= other._value


def pack_digit_matrix(ids: Sequence[Identifier]) -> np.ndarray:
    """The shared read-only ``(n, M)`` uint8 digit matrix of an identifier
    sequence: one join of the cached digit strings and one ``frombuffer``,
    without stacking ``n`` per-id arrays."""
    if not ids:
        return np.empty((0, 0), dtype=np.uint8)
    num_digits = ids[0].space.num_digits
    buffer = b"".join(identifier.digits for identifier in ids)
    matrix = np.frombuffer(buffer, dtype=np.uint8).reshape(len(ids), num_digits)
    matrix.flags.writeable = False
    return matrix
