import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from binsquares import oracle
from binsquares.numberforms import (
    GroundSetKind,
    expand,
    ground_progressions,
    ground_set_upto,
    is_binary_square,
    is_generalized_binary_square,
)
from binsquares.oracle import (
    MAX_BOUND,
    MAX_SUMMANDS,
    congruence_two_solutions,
    decompose_brute,
    density_floor_holds,
    exceptions_exact_four_positive,
    exceptions_four_squares,
    four_squares_counts,
    lower_density_estimate,
    optimality_check,
    power_of_two_short_representations,
    profile_sum_mask,
    residue_formula,
    square_power_mask,
    sumset_table,
    sumset_uniqueness,
    two_squares_density,
    verify_is_binary_square_consistency,
)

DATA = Path(__file__).parent / "data"


def golden_ints(name: str) -> list[int]:
    return [int(line) for line in (DATA / name).read_text().splitlines()]


def test_counts_below_2_17():
    assert four_squares_counts(1 << 17) == [256, 19542, 95422, 131016]


def test_exception_list_below_2_17():
    expected = golden_ints("four_squares_exceptions.txt")
    assert exceptions_four_squares(1 << 17) == expected
    assert len(expected) == 56 and expected[-1] == 686


def test_exceptions_stable_at_larger_bound():
    assert exceptions_four_squares(1 << 11) == golden_ints(
        "four_squares_exceptions.txt"
    )


def test_exact_four_positive_exceptions():
    expected = golden_ints("exact_four_positive_exceptions.txt")
    assert exceptions_exact_four_positive(1 << 13) == expected
    assert len(expected) == 112 and expected[-1] == 1772


def test_table_matches_nested_loops_small():
    bound = 1 << 10
    ground = ground_set_upto(GroundSetKind.BINARY_SQUARE, bound)
    table = sumset_table(GroundSetKind.BINARY_SQUARE, bound, 4)
    for k in (2, 3, 4):
        brute = {
            sum(combo)
            for combo in itertools.combinations_with_replacement(ground, k)
            if sum(combo) < bound
        }
        assert {v for v in range(bound) if table.contains(k, v)} == brute


def test_monotone_levels():
    table = sumset_table(GroundSetKind.BINARY_SQUARE, 1 << 12, 4)
    for k in range(4):
        assert table.reach[k] | table.reach[k + 1] == table.reach[k + 1]


def test_generalized_triples_cover_above_seven():
    table = sumset_table(GroundSetKind.GENERALIZED_BINARY_SQUARE, 1 << 12, 3)
    missing = table.missing(3)
    assert [v for v in missing if v <= 7] == [1, 2, 4, 7]
    assert all(v <= 7 for v in missing)


def test_square_power_mask_covers_all_small():
    mask = square_power_mask(1 << 12)
    assert mask == (1 << (1 << 12)) - 1


def test_density_example_window():
    d = two_squares_density(14)
    assert d == Fraction(4, 14)  # {3, 6, 10, 13}


def test_density_floor():
    assert density_floor_holds(14, 1 << 14, Fraction(1, 40))


def test_lower_density_near_point_14():
    d = lower_density_estimate(1 << 18)
    assert Fraction(12, 100) <= d <= Fraction(16, 100)


def test_density_scans_match_pointwise_ratios():
    member = sumset_table(GroundSetKind.BINARY_SQUARE, 1200, 2).reach[2]

    def ratio(m):
        return Fraction(bin(member & ((1 << (m + 1)) - 2)).count("1"), m)

    for bound in range(8, 1200, 37):
        expected = min(ratio(m) for m in range(bound // 4, bound))
        assert lower_density_estimate(bound) == expected
    for lo, hi in ((1, 1200), (14, 900), (300, 301), (5, 5)):
        for floor in (Fraction(1, 5), Fraction(1, 4), Fraction(3, 10)):
            expected = all(ratio(m) >= floor for m in range(lo, hi))
            assert density_floor_holds(lo, hi, floor) == expected


def test_sumset_bound_is_capped():
    with pytest.raises(ValueError, match="exceeds"):
        sumset_table(GroundSetKind.BINARY_SQUARE, MAX_BOUND + 1, 4)


def test_uniqueness_counts():
    for n in range(1, 13):
        assert sumset_uniqueness(n) == 1 << (2 * n - 1)


@pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
def test_uniqueness_rejects_a_non_int_n(n):
    with pytest.raises(ValueError, match="n must be an int"):
        sumset_uniqueness(n)


def test_uniqueness_holds_one_residue_class_of_sums_at_once():
    # all 2**17 sums in one set took 8.4 MB; a class holds at most 2**8
    tracemalloc.start()
    try:
        size = sumset_uniqueness(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 1 << 17
    assert peak < 1 << 20, f"traced peak {peak} bytes"


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=12),
    st.lists(st.integers(0, 40), min_size=1, max_size=12),
    st.integers(1, 12),
)
def test_residue_class_count_matches_one_set_of_sums(left, right, modulus):
    sums = [s + t for s in left for t in right]
    assume(len(set(sums)) < len(sums))  # some sums collide
    assert oracle._distinct_sums(left, right, modulus) == len(set(sums))


@settings(max_examples=300)
@given(
    st.integers(2, 16),
    st.lists(st.integers(0, 60), min_size=1, max_size=10),
    st.lists(st.integers(0, 60), min_size=1, max_size=10),
)
def test_distinct_sums_mixes_one_pair_and_shared_classes(modulus, left, right):
    # pairs (left class, t) per class of sums: some classes take the count of
    # their one pair's left class, the others collect their sums
    pairs = Counter((s_class + t) % modulus for s_class in {s % modulus for s in left} for t in right)
    assume(1 in pairs.values() and max(pairs.values()) > 1)
    expected = len({s + t for s in left for t in right})
    assert oracle._distinct_sums(left, right, modulus) == expected


def test_residue_formula_examples():
    assert residue_formula(4, 3, 4) == 2
    assert residue_formula(4, 3, 7) == 63 % 17


def test_residue_formula_matches_direct_mod():
    for m in range(2, 17):
        for g in range(m // 2 + 1, m):
            for c in range(1 << (g - 1), 1 << g):
                direct = (c * ((1 << g) + 1)) % ((1 << m) + 1)
                assert residue_formula(m, g, c) == direct, (m, g, c)


def test_residue_minimum_at_half_range():
    for m in range(2, 15):
        for g in range(m // 2 + 1, m):
            values = [
                residue_formula(m, g, c) for c in range(1 << (g - 1), 1 << g)
            ]
            assert min(values) == values[0]
            assert values[0] == (1 << (2 * g - m - 1)) * ((1 << (m - g)) - 1)


def test_congruence_two_only_solution():
    assert congruence_two_solutions(16) == [(4, 3)]


def test_optimality_check_keeps_its_table():
    # as the unfiltered pair loop returned it, order within a list included
    expected = {n: [] for n in range(1, 24, 2)}
    expected[9] = [(255, 221, 36), (238, 238, 36)]
    assert optimality_check(23) == expected


def test_optimality_of_four():
    reps = optimality_check(25)
    for n, found in reps.items():
        if n == 9:
            assert found, "2**9 should have short representations"
            assert (255, 221, 36) in found and (238, 238, 36) in found
            for combo in found:
                assert sum(combo) == 512
                assert all(is_binary_square(v) and v > 0 for v in combo)
        else:
            assert found == [], f"2**{n} unexpectedly representable"


def test_decompose_brute_round_trip():
    rng = random.Random(2026)
    table = sumset_table(GroundSetKind.BINARY_SQUARE, 1 << 14, 4)
    for _ in range(120):
        v = rng.randrange(1 << 14)
        parts = decompose_brute(v, GroundSetKind.BINARY_SQUARE, 4)
        if table.contains(4, v):
            assert parts is not None and len(parts) == 4
            assert sum(parts) == v
            assert all(is_binary_square(p) for p in parts)
        else:
            assert parts is None


def test_decompose_brute_generalized():
    parts = decompose_brute(686, GroundSetKind.GENERALIZED_BINARY_SQUARE, 3)
    assert parts is not None and sum(parts) == 686
    assert all(is_generalized_binary_square(p) for p in parts)


def per_member_level(prev, members, bound):
    """One sumset level the per-member way: prev shifted once per member."""
    acc = 0
    for g in members:
        acc |= prev << g
    return acc & ((1 << bound) - 1)


def test_progression_shift_or_matches_per_member_levels():
    for kind in GroundSetKind:
        for bound in range(1, 301):
            for include_zero in (True, False):
                members = [g for g in ground_set_upto(kind, bound) if g or include_zero]
                reach = sumset_table(kind, bound, 4, include_zero=include_zero).reach
                level = 1
                for k in range(1, 5):
                    level = per_member_level(level, members, bound)
                    assert reach[k] == level, (kind, bound, include_zero, k)
    squares = ground_set_upto(GroundSetKind.BINARY_SQUARE, 300)
    powers = ground_set_upto(GroundSetKind.POWER_OF_TWO, 300)
    expected = per_member_level(per_member_level(1, squares, 300), squares, 300)
    for _ in range(2):
        expected |= per_member_level(expected, powers, 300)
    assert square_power_mask(300) == expected


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.integers(0, 200), st.integers(1, 40), st.integers(1, 70)), max_size=4),
    st.integers(0, (1 << 120) - 1),
    st.integers(1, 300),
)
def test_shift_or_level_matches_per_member_loop(progressions, prev, bound):
    # counts run past the bound and progressions overlap
    prev &= (1 << bound) - 1
    members = [g for p in progressions for g in expand(p)]
    assert oracle._shift_or_level(prev, progressions, bound) == per_member_level(prev, members, bound)


@settings(max_examples=200)
@given(
    st.lists(st.tuples(st.integers(1, 6).map(lambda n: 2 * n), st.integers(0, 3)), max_size=3),
    st.integers(1, 3000),
    st.booleans(),
)
def test_profile_sum_mask_matches_per_member_blocks(length_counts, bound, generalized):
    expected = 1
    for two_n, count in length_counts:
        n = two_n // 2
        halves = range(1 << n) if generalized else range(1 << (n - 1), 1 << n)
        for _ in range(count):
            expected = per_member_level(expected, [a * ((1 << n) + 1) for a in halves], bound)
    assert profile_sum_mask(length_counts, bound, generalized) == expected


@settings(max_examples=300)
@given(
    st.integers(1, 150),
    st.integers(1, 150),
    st.lists(st.integers(0, 320), max_size=160),
    st.booleans(),
)
def test_window_minimum_matches_a_per_m_scan(lo, width, bits, dense):
    hi = lo + width
    member = sum(1 << b for b in set(bits))
    if dense:
        member ^= (1 << 320) - 1
    best = None
    for m in range(lo, hi):
        count = bin(member & ((1 << (m + 1)) - 2)).count("1")
        if best is None or count * best[1] < best[0] * m:  # ties keep the first m
            best = (count, m)
    assert oracle._window_minimum(member, lo, hi) == best


def brute_window_minimum(member, lo, hi):
    """The first m in [lo, hi) with the least ratio, one m at a time."""
    bits = format(member, "b")[::-1]
    count, best = 0, None
    for m in range(1, hi):
        count += m < len(bits) and bits[m] == "1"
        if m >= lo and (best is None or count * best[1] < best[0] * m):
            best = (count, m)
    return best


@settings(max_examples=120)
@given(st.integers(2, 4), st.integers(0, 64), st.integers(0, 100), st.integers(0, 2**32), st.data())
def test_window_minimum_matches_brute_force_across_blocks(blocks, period, percent, seed, data):
    # masks several blocks wide; period > 0 repeats `members` members then
    # gaps from 1 on, so every multiple of the period ties at the minimum
    rng = random.Random(seed)
    width = blocks * oracle._DENSITY_BLOCK + rng.randrange(oracle._DENSITY_BLOCK)
    members = data.draw(st.integers(0, period))
    if period:
        bits = "".join("1" if x % period < members else "0" for x in range(width - 1))
    else:
        bits = "".join("1" if rng.randrange(100) < percent else "0" for _ in range(width - 1))
    member = int(bits[::-1], 2) << 1  # bits[i] marks 1 + i
    lo = data.draw(st.integers(1, width - 1))
    hi = data.draw(st.integers(lo + 1, width + oracle._DENSITY_BLOCK))
    best = oracle._window_minimum(member, lo, hi)
    assert best == brute_window_minimum(member, lo, hi)
    if 0 < members < period:
        first = -(-lo // period) * period
        if first < hi <= width:
            assert best == (first // period * members, first)


@pytest.mark.parametrize("lo, gap_block", [(1, 0), (5, 1), (700, 2)])
def test_window_minimum_scans_a_block_whose_bound_ties(lo, gap_block):
    # members fill [1, lo + 4 blocks) but for one whole block of the window,
    # so the least ratio sits at that block's last m and equals its bound
    block = oracle._DENSITY_BLOCK
    first, end = lo + 1 + gap_block * block, lo + (gap_block + 1) * block
    member = (1 << (lo + 4 * block)) - 2 & ~((1 << end + 1) - (1 << first))
    hi = lo + 4 * block
    assert oracle._window_minimum(member, lo, hi) == (end - block, end)
    assert oracle._window_minimum(member, lo, hi) == brute_window_minimum(member, lo, hi)


def reference_decompose_brute(value, kind, k):
    """Greedy backtracking over levels built per call on [0, value] only."""
    if k == 0:
        return [] if value == 0 else None
    ground = ground_set_upto(kind, value + 1)
    levels = [1]
    for _ in range(k):
        acc = 0
        for g in ground:
            acc |= levels[-1] << g
        levels.append(acc & ((1 << (value + 1)) - 1))
    if not levels[k] >> value & 1:
        return None
    parts, remaining = [], value
    for level in range(k, 0, -1):
        g = next(
            g
            for g in reversed(ground)
            if g <= remaining and levels[level - 1] >> (remaining - g) & 1
        )
        parts.append(g)
        remaining -= g
    return parts


def test_decompose_brute_matches_per_call_levels():
    edges = sorted({(1 << b) + d for b in range(17) for d in (-1, 0, 1)})
    rng = random.Random(17)
    for kind in GroundSetKind:
        sample = [rng.randrange(1 << rng.randrange(1, 18)) for _ in range(40)]
        for k in range(5):
            for v in edges + sample:
                expected = reference_decompose_brute(v, kind, k)
                assert decompose_brute(v, kind, k) == expected, (kind, k, v)


def test_decompose_brute_cache_stays_within_maxsize():
    # the tables of the witness small paths: squares4 below 2**17, the
    # square-power and generalized modes below 2**10
    oracle._search_tables.cache_clear()
    for _ in range(2):
        for kind, k, bits in (
            (GroundSetKind.BINARY_SQUARE, 4, 17),
            (GroundSetKind.BINARY_SQUARE, 2, 10),
            (GroundSetKind.GENERALIZED_BINARY_SQUARE, 3, 10),
        ):
            for b in range(bits + 1):  # 0 shares bit length 1's table
                decompose_brute((1 << b) - 1, kind, k)
    info = oracle._search_tables.cache_info()
    assert (info.misses, info.hits, info.currsize) == (37, 2 * 40 - 37, info.maxsize)
    decompose_brute(5, GroundSetKind.POWER_OF_TWO, 1)
    assert oracle._search_tables.cache_info().currsize == info.maxsize


def test_decompose_brute_caches_only_small_path_tables():
    # a 2**24 table with 9 levels is 18 MB, so larger tables live for one call
    oracle._search_tables.cache_clear()
    decompose_brute((1 << 17) - 1, GroundSetKind.BINARY_SQUARE, 4)
    assert oracle._search_tables.cache_info().currsize == 1
    value = (1 << 20) + 7
    parts = decompose_brute(value, GroundSetKind.BINARY_SQUARE, 4)
    assert parts == reference_decompose_brute(value, GroundSetKind.BINARY_SQUARE, 4)
    assert sum(parts) == value and all(is_binary_square(p) for p in parts)
    assert oracle._search_tables.cache_info().currsize == 1


@pytest.mark.parametrize("method", ["contains", "count", "missing"])
@pytest.mark.parametrize("k", [-1, 3])
def test_table_level_outside_max_k_rejected(method, k):
    table = sumset_table(GroundSetKind.BINARY_SQUARE, 100, 2)
    args = (k, 3) if method == "contains" else (k,)
    with pytest.raises(ValueError, match="outside"):
        getattr(table, method)(*args)


@pytest.mark.parametrize("k", [-1, -2])
def test_decompose_brute_negative_k_rejected(k):
    with pytest.raises(ValueError, match="non-negative"):
        decompose_brute(0, GroundSetKind.BINARY_SQUARE, k)


@pytest.mark.parametrize("k", [MAX_SUMMANDS + 1, 300])
def test_summand_counts_above_the_cap_are_rejected_before_any_table(k, monkeypatch):
    # one bound-bit level per summand: 300 levels at 2**24 ran for minutes
    def no_tables(*args):
        raise AssertionError("a table was built for a rejected count")

    monkeypatch.setattr(oracle, "ground_set_upto", no_tables)
    monkeypatch.setattr(oracle, "ground_progressions", no_tables)
    oracle._search_tables.cache_clear()
    with pytest.raises(ValueError, match=f"k {k} exceeds the supported maximum 8"):
        decompose_brute((1 << 23) + 1, GroundSetKind.BINARY_SQUARE, k)
    with pytest.raises(ValueError, match=f"max_k {k} exceeds the supported maximum 8"):
        sumset_table(GroundSetKind.BINARY_SQUARE, MAX_BOUND, k)
    assert oracle._search_tables.cache_info().currsize == 0


def test_summand_count_at_the_cap_is_served():
    assert MAX_SUMMANDS >= 8  # crossvalidate sums up to 8 squares
    table = sumset_table(GroundSetKind.BINARY_SQUARE, 64, MAX_SUMMANDS)
    assert len(table.reach) == MAX_SUMMANDS + 1
    parts = decompose_brute(63, GroundSetKind.POWER_OF_TWO, MAX_SUMMANDS)
    assert len(parts) == MAX_SUMMANDS and sum(parts) == 63
    assert all(p & (p - 1) == 0 for p in parts)


@pytest.mark.parametrize("lo", [0, -5])
def test_density_floor_needs_positive_lo(lo):
    with pytest.raises(ValueError, match="positive"):
        density_floor_holds(lo, 100, Fraction(1, 40))


def test_profile_mask_small():
    # sums of one length-4 square and one length-6 square
    mask = profile_sum_mask([(4, 1), (6, 1)], 128)
    squares4 = {10, 15}
    squares6 = {36, 45, 54, 63}
    expected = {a + b for a in squares4 for b in squares6 if a + b < 128}
    assert {v for v in range(128) if mask >> v & 1} == expected


def test_predicate_ground_set_agreement():
    assert verify_is_binary_square_consistency(1 << 12)


def test_exact_table_counts_strictly_increase():
    table = sumset_table(GroundSetKind.BINARY_SQUARE, 1 << 12, 4)
    counts = [table.count(k) for k in range(1, 5)]
    assert counts == sorted(counts)
    assert counts[0] < counts[3]


def test_invalid_inputs():
    with pytest.raises(ValueError):
        sumset_table(GroundSetKind.BINARY_SQUARE, 0, 4)
    with pytest.raises(ValueError):
        two_squares_density(0)
    with pytest.raises(ValueError):
        residue_formula(4, 2, 2)
    with pytest.raises(ValueError):
        sumset_uniqueness(0)


SQUARE = GroundSetKind.BINARY_SQUARE


# (entry point, arguments, the argument it must refuse)
NON_INT_CASES = [
    ("sumset_table", (SQUARE, True, 4), "bound"),
    ("sumset_table", (SQUARE, 100.0, 4), "bound"),
    ("sumset_table", (SQUARE, 100, True), "max_k"),
    ("sumset_table", (SQUARE, 100, 2.0), "max_k"),
    ("four_squares_counts", (True,), "bound"),
    ("two_squares_density", (True,), "m"),
    ("two_squares_density", (100.0,), "m"),
    ("lower_density_estimate", (100.0,), "bound"),
    ("density_floor_holds", (True, 100, Fraction(1, 40)), "lo"),
    ("density_floor_holds", (14, 100.0, Fraction(1, 40)), "hi"),
    ("power_of_two_short_representations", (True,), "n"),
    ("profile_sum_mask", ([(4, 1)], True), "bound"),
    ("profile_sum_mask", ([(4, 1.0)], 100), "count"),
    ("profile_sum_mask", ([(4.0, 1)], 100), "length"),
    ("square_power_mask", (100, 2, True), "max_powers"),
]


@pytest.mark.parametrize(
    "entry, args, name",
    NON_INT_CASES,
    ids=[f"{k}-{entry}-{name}" for k, (entry, _, name) in enumerate(NON_INT_CASES)],
)
def test_oracle_entry_points_refuse_a_non_int(entry, args, name):
    # a bool passed for 0 or 1, and a float died with AttributeError
    with pytest.raises(ValueError, match=f"^{name} must be an int, not (bool|float)$"):
        getattr(oracle, entry)(*args)


def test_power_representations_are_capped_at_2_to_the_25():
    # optimality_check's range; 2**25 already allocates about 23 MB
    with pytest.raises(ValueError, match=r"n must be in \[1, 25\]"):
        power_of_two_short_representations(26)
    with pytest.raises(ValueError, match=r"n must be in \[1, 25\]"):
        power_of_two_short_representations(0)
    assert power_of_two_short_representations(9) == [(255, 221, 36), (238, 238, 36)]


def test_profile_mask_refuses_a_bound_past_the_cap_before_any_sweep(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("a level was swept for a rejected bound")

    monkeypatch.setattr(oracle, "_shift_or_level", no_sweep)
    for bound in (MAX_BOUND + 1, 0):
        with pytest.raises(ValueError, match=r"outside \[1, 2\*\*24\]"):
            profile_sum_mask([(4, 1)], bound)


def test_profile_mask_refuses_a_negative_count():
    # [(2, -1)] returned 1, the mask of the empty sum
    with pytest.raises(ValueError, match="non-negative"):
        profile_sum_mask([(2, -1)], 100)
    assert profile_sum_mask([(2, 0)], 100) == 1


def test_square_power_mask_refuses_a_negative_power_budget():
    # -1 was read as no powers at all
    with pytest.raises(ValueError, match="max_powers must be non-negative"):
        square_power_mask(100, 2, -1)
    assert square_power_mask(100, 2, 0) == sumset_table(SQUARE, 100, 2).reach[2]
