"""Canonical binary representations and the ground sets of the additive theory.

Bit sequences are least-significant-digit first throughout.  The canonical
form of a positive integer has no trailing zeros (so its last digit is 1);
zero is the empty sequence.

A *binary square* is 0 or an integer whose canonical representation is some
nonempty block written twice, i.e. a(2**n + 1) with 2**(n-1) <= a < 2**n.
A *generalized binary square* relaxes this by allowing the representation to
be zero-padded on the left to an even length before splitting, i.e.
a(2**p + 1) with 0 <= a < 2**p.
"""

from __future__ import annotations

import enum
from typing import Iterator


class GroundSetKind(enum.Enum):
    BINARY_SQUARE = "binary-square"
    GENERALIZED_BINARY_SQUARE = "generalized-binary-square"
    POWER_OF_TWO = "power-of-two"


def to_bits(value: int) -> tuple[int, ...]:
    """Canonical LSD-first digits of ``value``. Zero maps to the empty tuple."""
    if value < 0:
        raise ValueError("negative values have no canonical form")
    digits = []
    while value:
        digits.append(value & 1)
        value >>= 1
    return tuple(digits)


def from_bits(bits: tuple[int, ...]) -> int:
    """Inverse of :func:`to_bits`; requires canonical input (no trailing 0)."""
    if any(b not in (0, 1) for b in bits):
        raise ValueError("digits must be 0 or 1")
    if bits and bits[-1] != 1:
        raise ValueError("non-canonical: most significant digit is 0")
    return sum(b << i for i, b in enumerate(bits))


def is_binary_square(value: int) -> bool:
    if value < 0:
        return False
    if value == 0:
        return True
    n = value.bit_length()
    if n % 2:
        return False
    half = n // 2
    a, rest = divmod(value, (1 << half) + 1)
    return rest == 0 and a >> (half - 1) == 1


def square_half_width(value: int) -> int | None:
    """The width p of the halves of a generalized binary square, so that
    ``value`` is a(2**p + 1) with a < 2**p, or None when it is not one.

    Such a value is the bit string of a written twice, the low copy p bits
    wide; 2**(2p) > value needs p >= half the length, and the least such p
    is taken.  Zero has width 0.
    """
    if value < 0:
        return None
    n = value.bit_length()
    for p in range((n + 1) // 2, n + 1):
        if value >> p == value & ((1 << p) - 1):
            return p
    return None


def is_generalized_binary_square(value: int) -> bool:
    """True when some even-length zero-padding of ``value`` splits into xx."""
    return square_half_width(value) is not None


def is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


def squares_of_length(two_n: int) -> list[int]:
    """All binary squares of canonical length exactly ``two_n`` (even, >= 2).

    These are a(2**n + 1) for the 2**(n-1) half-blocks a with leading 1.
    """
    if two_n < 2 or two_n % 2:
        raise ValueError("length must be a positive even integer")
    n = two_n // 2
    factor = (1 << n) + 1
    return [a * factor for a in range(1 << (n - 1), 1 << n)]


def _generalized_upto(bound: int) -> Iterator[int]:
    seen = set()
    p = 1
    while (1 << p) + 1 <= bound or p == 1:
        factor = (1 << p) + 1
        for a in range(1 << p):
            v = a * factor
            if v >= bound:
                break
            if v not in seen:
                seen.add(v)
                yield v
        if factor >= bound:
            break
        p += 1


def ground_set_upto(kind: GroundSetKind, bound: int) -> list[int]:
    """Sorted members of the ground set in [0, bound)."""
    if bound <= 0:
        return []
    if kind is GroundSetKind.BINARY_SQUARE:
        members = [0]
        two_n = 2
        while True:
            block = [v for v in squares_of_length(two_n) if v < bound]
            if not block:
                break
            members.extend(block)
            two_n += 2
        return members
    if kind is GroundSetKind.GENERALIZED_BINARY_SQUARE:
        return sorted(_generalized_upto(bound))
    if kind is GroundSetKind.POWER_OF_TWO:
        return [1 << e for e in range(bound.bit_length()) if (1 << e) < bound]
    raise ValueError(f"unknown ground set kind: {kind!r}")
