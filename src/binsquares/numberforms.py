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


class GroundSetKind(enum.Enum):
    BINARY_SQUARE = "binary-square"
    GENERALIZED_BINARY_SQUARE = "generalized-binary-square"
    POWER_OF_TWO = "power-of-two"


# between the text digits "0"/"1" and the digit values 0/1, as bytes
_FROM_TEXT = bytes.maketrans(b"01", b"\x00\x01")
_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def to_bits(value: int) -> tuple[int, ...]:
    """Canonical LSD-first digits of ``value``. Zero maps to the empty tuple."""
    if value < 0:
        raise ValueError("negative values have no canonical form")
    if not value:
        return ()
    # one pass over the binary text, where a shift per bit is quadratic
    return tuple(bin(value)[:1:-1].encode().translate(_FROM_TEXT))


def from_bits(bits: tuple[int, ...]) -> int:
    """Inverse of :func:`to_bits`; requires canonical input (no trailing 0)."""
    if not all(type(b) is int and b in (0, 1) for b in bits):
        raise ValueError("digits must be 0 or 1")
    if not bits:
        return 0
    if bits[-1] != 1:
        raise ValueError("non-canonical: most significant digit is 0")
    return int(bytes(bits)[::-1].translate(_TO_TEXT), 2)


def is_binary_square(value: int) -> bool:
    """True for 0 and for a(2**n + 1) with 2**(n-1) <= a < 2**n: a value of
    even length whose high half equals its low half; the high half's top
    bit is the value's own, so a >= 2**(n-1) holds by itself."""
    if value < 0:
        return False
    if value == 0:
        return True
    n = value.bit_length()
    if n % 2:
        return False
    half = n // 2
    return value >> half == value & ((1 << half) - 1)


def square_half_width(value: int) -> int | None:
    """The width p of the halves of a generalized binary square, so that
    ``value`` is a(2**p + 1) with a < 2**p, or None when it is not one.

    Such a value is the bit string of a written twice, the low copy p bits
    wide; 2**(2p) > value needs p >= half the length, so the low copy lies
    in the value's low floor(n/2) bits with zeros above it, and those bits
    are a.  That fixes p = n - a.bit_length(), the only width that can
    fit; zero has width 0.
    """
    if value < 0:
        return None
    n = value.bit_length()
    a = value & ((1 << n // 2) - 1)
    p = n - a.bit_length()
    return p if a << p | a == value else None


def is_generalized_binary_square(value: int) -> bool:
    """True when some even-length zero-padding of ``value`` splits into xx."""
    return square_half_width(value) is not None


def is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


def length_progression(two_n: int) -> tuple[int, int, int]:
    """The binary squares of canonical length exactly ``two_n`` (even, >= 2)
    as a ``(first, step, count)`` arithmetic progression.

    These are a(2**n + 1) for the 2**(n-1) half-blocks a with leading 1.
    """
    if two_n < 2 or two_n % 2:
        raise ValueError("length must be a positive even integer")
    n = two_n // 2
    factor = (1 << n) + 1
    return factor << (n - 1), factor, 1 << (n - 1)


def expand(progression: tuple[int, int, int]) -> range:
    """The terms of a ``(first, step, count)`` progression, in order."""
    first, step, count = progression
    return range(first, first + step * count, step)


def squares_of_length(two_n: int) -> list[int]:
    """All binary squares of canonical length exactly ``two_n``, ascending."""
    return list(expand(length_progression(two_n)))


def ground_progressions(kind: GroundSetKind, bound: int) -> list[tuple[int, int, int]]:
    """The ground set in [0, bound) as ``(first, step, count)`` progressions.

    Zero, a member of both square kinds, is a term of its own.  Binary
    squares of length 2n start at 2**(n-1)(2**n + 1) with step 2**n + 1;
    generalized squares of width p are a(2**p + 1) for 1 <= a < 2**p;
    powers of two are single terms.  No member appears twice: a positive
    generalized square has one width, since for widths p < q the low q
    bits of a(2**p + 1) exceed its top bits a >> (q - p).
    """
    if bound <= 0:
        return []
    if kind is GroundSetKind.POWER_OF_TWO:
        return [(1 << e, 1, 1) for e in range(bound.bit_length()) if (1 << e) < bound]
    if kind is GroundSetKind.BINARY_SQUARE:
        lengths = range(2, bound.bit_length() + 1, 2)
        raw = [length_progression(two_n) for two_n in lengths]
    elif kind is GroundSetKind.GENERALIZED_BINARY_SQUARE:
        widths = range(1, bound.bit_length() + 1)
        raw = [((1 << p) + 1, (1 << p) + 1, (1 << p) - 1) for p in widths]
    else:
        raise ValueError(f"unknown ground set kind: {kind!r}")
    out = [(0, 1, 1)]
    for first, step, count in raw:
        if first < bound:
            out.append((first, step, min(count, (bound - 1 - first) // step + 1)))
    return out


def ground_set_upto(kind: GroundSetKind, bound: int) -> list[int]:
    """Sorted members of the ground set in [0, bound)."""
    return sorted(v for progression in ground_progressions(kind, bound) for v in expand(progression))
