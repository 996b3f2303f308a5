import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsquares.numberforms import (
    GroundSetKind,
    expand,
    from_bits,
    ground_progressions,
    ground_set_upto,
    is_binary_square,
    is_generalized_binary_square,
    is_power_of_two,
    square_half_width,
    squares_of_length,
    to_bits,
)

# OEIS A020330 and A175468 openings, frozen.
SQUARE_PREFIX = [0, 3, 10, 15, 36, 45, 54, 63, 136, 153, 170, 187, 204, 221, 238, 255]
GENERALIZED_PREFIX = [0, 3, 5, 9, 10, 15, 17, 18, 27, 33, 34, 36, 45, 51, 54, 63]


def test_to_bits_examples():
    assert to_bits(43) == (1, 1, 0, 1, 0, 1)
    assert to_bits(0) == ()
    assert to_bits(1) == (1,)


def test_from_bits_rejects_non_canonical():
    with pytest.raises(ValueError):
        from_bits((1, 0))
    with pytest.raises(ValueError):
        from_bits((2,))


def test_bits_round_trip():
    rng = random.Random(7)
    samples = list(range(300)) + [rng.getrandbits(60) for _ in range(200)]
    for v in samples:
        assert from_bits(to_bits(v)) == v


def bin_bits(value):
    """LSD-first digits read off ``bin``; zero has none."""
    return tuple(int(c) for c in reversed(bin(value)[2:])) if value else ()


@settings(max_examples=150)
@given(st.integers(0, 5000).flatmap(lambda n: st.integers(0, (1 << n) - 1)))
def test_bits_agree_with_bin_up_to_5000_bits(value):
    bits = to_bits(value)
    assert bits == bin_bits(value)
    assert from_bits(bits) == value
    with pytest.raises(ValueError, match="non-canonical"):
        from_bits(bits + (0,))
    with pytest.raises(ValueError, match="must be 0 or 1"):
        from_bits(bits + (2, 1))
    with pytest.raises(ValueError, match="no canonical form"):
        to_bits(-value - 1)


def test_binary_square_examples():
    assert is_binary_square(0)
    assert is_binary_square(221)  # 11011101
    assert is_binary_square(3)
    assert not is_binary_square(2)
    assert not is_binary_square(9)
    assert not is_binary_square(-4)


def test_generalized_examples():
    assert is_generalized_binary_square(9)  # 001001
    assert is_generalized_binary_square(5)  # 0101
    assert is_generalized_binary_square(0)
    assert not is_generalized_binary_square(2)
    assert not is_generalized_binary_square(7)


def test_every_square_is_generalized():
    for v in range(4096):
        if is_binary_square(v):
            assert is_generalized_binary_square(v)


def test_generalized_matches_division_form():
    def by_division(value):
        return value == 0 or any(
            value % ((1 << p) + 1) == 0 and value // ((1 << p) + 1) < 1 << p
            for p in range(1, value.bit_length() + 1)
        )

    rng = random.Random(12)
    values = list(range(1 << 13))
    for bits in range(14, 400, 7):
        a = rng.randrange(1 << (bits // 2))
        pad = rng.randrange(0, 4)
        values += [a * ((1 << (bits // 2 + pad)) + 1), rng.getrandbits(bits)]
        values.append(values[-2] + 1)
    for v in values:
        assert is_generalized_binary_square(v) == by_division(v)


def division_is_binary_square(value):
    """The divisor test: a(2**half + 1) with a leading 1 in a."""
    if value <= 0:
        return value == 0
    n = value.bit_length()
    if n % 2:
        return False
    a, rest = divmod(value, (1 << n // 2) + 1)
    return rest == 0 and a >> (n // 2 - 1) == 1


def loop_square_half_width(value):
    """The least p from half the length up whose halves agree, tried in turn."""
    if value < 0:
        return None
    n = value.bit_length()
    for p in range((n + 1) // 2, n + 1):
        if value >> p == value & ((1 << p) - 1):
            return p
    return None


def predicate_edge_values():
    rng = random.Random(27)
    values = list(range(-3, 1 << 12))
    for p in (1, 2, 3, 7, 31, 32, 64, 65, 200, 1001):
        a = rng.getrandbits(p) | 1 << (p - 1)
        small = a >> rng.randrange(1, p + 1)  # a zero-padded low half
        for v in (
            (1 << p) + 1,
            (1 << 2 * p) + 1,
            a * ((1 << p) + 1),
            small * ((1 << p) + 1),
            small << p,
            a << p,
            a * ((1 << p) + 1) << 1,
            rng.getrandbits(2 * p),
            rng.getrandbits(2 * p + 1),
        ):
            values += [v - 1, v, v + 1]
    return values


def test_linear_predicates_match_the_division_and_loop_forms():
    for v in predicate_edge_values():
        assert is_binary_square(v) == division_is_binary_square(v), v
        assert square_half_width(v) == loop_square_half_width(v), v


@settings(max_examples=300)
@given(st.integers(1, 300), st.integers(0, 2**300), st.integers(-2, 2), st.integers(0, 3))
def test_linear_predicates_match_on_random_squares(p, a, offset, shift):
    # a(2**p + 1) for any a < 2**p, padded or not, and its neighbours
    v = (a % (1 << p) * ((1 << p) + 1) << shift) + offset
    assert is_binary_square(v) == division_is_binary_square(v)
    assert square_half_width(v) == loop_square_half_width(v)


def test_sequence_prefixes():
    squares = ground_set_upto(GroundSetKind.BINARY_SQUARE, 256)
    assert squares == SQUARE_PREFIX
    generalized = ground_set_upto(GroundSetKind.GENERALIZED_BINARY_SQUARE, 64)
    assert generalized == GENERALIZED_PREFIX


def test_ground_sets_match_predicates():
    for kind, pred in [
        (GroundSetKind.BINARY_SQUARE, is_binary_square),
        (GroundSetKind.GENERALIZED_BINARY_SQUARE, is_generalized_binary_square),
        (GroundSetKind.POWER_OF_TWO, is_power_of_two),
    ]:
        members = set(ground_set_upto(kind, 2048))
        for v in range(2048):
            assert (v in members) == pred(v), (kind, v)


def test_squares_of_length_16():
    block = squares_of_length(16)
    assert len(block) == 128
    assert block[-1] == 255 * 257 == 65535
    assert all(len(to_bits(v)) == 16 for v in block)


def test_squares_of_length_partitions_ground_set():
    by_length = [v for two_n in range(2, 18, 2) for v in squares_of_length(two_n)]
    assert sorted(by_length) == ground_set_upto(GroundSetKind.BINARY_SQUARE, 1 << 17)[1:]


def test_square_count_below_2_17():
    assert len(ground_set_upto(GroundSetKind.BINARY_SQUARE, 1 << 17)) == 256


def test_powers_of_two():
    assert ground_set_upto(GroundSetKind.POWER_OF_TWO, 64) == [1, 2, 4, 8, 16, 32]
    assert not is_power_of_two(0)


def reference_ground_set(kind, bound):
    """The ground set enumerated member by member, duplicates dropped."""
    if bound <= 0:
        return []
    if kind is GroundSetKind.POWER_OF_TWO:
        return [1 << e for e in range(bound.bit_length()) if (1 << e) < bound]
    members = {0}
    width = 1
    while (1 << width) + 1 < bound:
        factor = (1 << width) + 1
        low = 1 << (width - 1) if kind is GroundSetKind.BINARY_SQUARE else 1
        members.update(a * factor for a in range(low, min(1 << width, (bound - 1) // factor + 1)))
        width += 1
    return sorted(members)


@settings(max_examples=300)
@given(st.sampled_from(list(GroundSetKind)), st.integers(-3, 1 << 14))
def test_progressions_expand_to_the_member_by_member_ground_set(kind, bound):
    progressions = ground_progressions(kind, bound)
    terms = [v for p in progressions for v in expand(p)]
    assert all(count >= 1 for _, _, count in progressions)
    assert all(0 <= v < bound for v in terms)
    assert sorted(terms) == ground_set_upto(kind, bound) == reference_ground_set(kind, bound)
    assert len(terms) == len(set(terms))  # no member in two progressions


def test_progressions_at_the_largest_bound():
    bound = 1 << 24
    for kind in GroundSetKind:
        assert ground_set_upto(kind, bound) == reference_ground_set(kind, bound)
    assert ground_progressions(GroundSetKind.BINARY_SQUARE, bound)[:3] == [(0, 1, 1), (3, 3, 1), (10, 5, 2)]
    widths = ground_progressions(GroundSetKind.GENERALIZED_BINARY_SQUARE, bound)
    assert widths[0] == (0, 1, 1) and len(widths) == 24  # zero, then widths 1..23
    assert widths[-1] == ((1 << 23) + 1, (1 << 23) + 1, 1)
