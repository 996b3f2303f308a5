"""Exhaustive bitset arithmetic over the additive ground sets.

Reachability tables are big-integer bitmasks: bit N of ``reach[k]`` is set
when N is a sum of at most k ground-set members (exactly k once the ground
set contains 0, as it does for both square kinds).  Building a level is a
shift-or sweep over the ground set's arithmetic progressions: a block that
covers 2**i terms of a progression doubles by OR-ing itself shifted 2**i
steps, so each progression costs about 2 log2(count) shifts of one
bound-bit int, whatever its length.  Bounds around 2**17 cost
milliseconds, and a level at 2**24 a fraction of a second.

Everything here is deliberately independent of the automata modules; these
tables are the oracle the machine constructions are validated against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .numberforms import (
    GroundSetKind,
    ground_progressions,
    ground_set_upto,
    is_binary_square,
    length_progression,
    squares_of_length,
)


# each level is a bound-bit int (2 MB at 2**24) and a sweep holds a few
# more beside it while it shifts, so memory per level is the limit
MAX_BOUND = 1 << 24
# each summand adds one such level, so a count must be capped as well; the
# package sums at most 4 and crossvalidate's profiles at most 8, where its
# fixed machine per summand subset and carry already takes seconds at 14 bits
MAX_SUMMANDS = 8
# decompose_brute keeps the tables of the witness small paths, which stay
# below 2**17; a table for a larger value is built for that call alone
_CACHED_BITS = 17
# width of the blocks that _window_minimum bounds before it scans runs: at
# 2**18, 11 of 192 blocks are scanned, and the scan took 0.93 ms against
# 0.92 ms at 512, 1.23 ms at 4096 and 6.6 ms run by run over the whole
# window (best of 15 in one process, 2-vCPU x86-64 host)
_DENSITY_BLOCK = 1024


def _check_ints(**values: object) -> None:
    # a bool would pass for 0 or 1, and a float dies deep in a sweep
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, not {type(value).__name__}")


def _shift_or_level(prev: int, progressions: list[tuple[int, int, int]], bound: int) -> int:
    """The OR of ``prev << g`` over the terms g of the progressions, cut
    to [0, bound).

    ``block`` covers the first ``size`` terms of a progression and doubles
    each round; the set bits of the term count pick which blocks to add,
    each shifted past the terms already added.
    """
    mask = (1 << bound) - 1
    acc = 0
    for first, step, count in progressions:
        if first >= bound:
            continue
        count = min(count, (bound - 1 - first) // step + 1)
        block = (prev << first) & mask
        done = 0
        size = 1
        while True:
            if count & size:
                acc |= block << done * step
                done += size
            if 2 * size > count:
                break
            block = (block | block << size * step) & mask
            size *= 2
    return acc & mask


class SumsetTable(NamedTuple):
    """Reachability masks for sums of up to ``max_k`` ground-set members."""

    kind: GroundSetKind
    bound: int
    max_k: int
    reach: tuple[int, ...]  # reach[k] for k = 0 .. max_k

    def _level(self, k: int) -> int:
        if not 0 <= k <= self.max_k:
            raise ValueError(f"k {k} outside [0, {self.max_k}]")
        return self.reach[k]

    def contains(self, k: int, value: int) -> bool:
        if not 0 <= value < self.bound:
            raise ValueError(f"value {value} outside [0, {self.bound})")
        return bool(self._level(k) >> value & 1)

    def count(self, k: int) -> int:
        return bin(self._level(k)).count("1")

    def missing(self, k: int) -> list[int]:
        """Values in [0, bound) that are not a sum of k members."""
        mask = (1 << self.bound) - 1
        return _bit_positions(~self._level(k) & mask)


def _bit_positions(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def sumset_table(
    kind: GroundSetKind,
    bound: int,
    max_k: int = 4,
    include_zero: bool = True,
) -> SumsetTable:
    """Build reachability masks.  ``include_zero=False`` drops 0 from the
    ground set, turning level k into sums of exactly k positive members."""
    _check_ints(bound=bound, max_k=max_k)
    if bound <= 0 or max_k < 0:
        raise ValueError("bound must be positive and max_k non-negative")
    if max_k > MAX_SUMMANDS:
        raise ValueError(f"max_k {max_k} exceeds the supported maximum {MAX_SUMMANDS}")
    if bound > MAX_BOUND:
        raise ValueError(f"bound {bound} exceeds the supported maximum 2**24")
    ground = ground_progressions(kind, bound)
    if not include_zero:
        ground = [p for p in ground if p[0]]  # zero is a term of its own
    levels = [1]  # only the empty sum
    for _ in range(max_k):
        levels.append(_shift_or_level(levels[-1], ground, bound))
    return SumsetTable(kind=kind, bound=bound, max_k=max_k, reach=tuple(levels))


def four_squares_counts(bound: int) -> list[int]:
    """Counts of integers in [0, bound) that are sums of up to k binary
    squares, for k = 1..4."""
    table = sumset_table(GroundSetKind.BINARY_SQUARE, bound, 4)
    return [table.count(k) for k in range(1, 5)]


def exceptions_four_squares(bound: int) -> list[int]:
    """Integers in [0, bound) that are not the sum of four binary squares."""
    table = sumset_table(GroundSetKind.BINARY_SQUARE, bound, 4)
    return table.missing(4)


def exceptions_exact_four_positive(bound: int) -> list[int]:
    """Integers in [0, bound) with no expression as a sum of exactly four
    positive binary squares."""
    table = sumset_table(GroundSetKind.BINARY_SQUARE, bound, 4, include_zero=False)
    return table.missing(4)


@lru_cache(maxsize=1)
def _two_square_sums(limit: int) -> int:
    """Bit x marks x in [0, limit) as a sum of two binary squares.  The last
    mask is kept: ``density`` asks for [0, B] and then for [0, B)."""
    return sumset_table(GroundSetKind.BINARY_SQUARE, limit, 2).reach[2]


def two_squares_density(m: int) -> Fraction:
    """|{x : 1 <= x <= m, x is a sum of two binary squares}| / m, exactly."""
    _check_ints(m=m)
    if m < 1:
        raise ValueError("m must be positive")
    if m >= MAX_BOUND:
        # the table below covers [0, m], one more than m values
        raise ValueError(f"m {m} exceeds the supported maximum 2**24 - 1")
    member = _two_square_sums(m + 1)
    return Fraction(bin(member >> 1).count("1"), m)  # drop x = 0


def _window_minimum(member: int, lo: int, hi: int) -> tuple[int, int]:
    """(|S cap [1, m]|, m) for the first m in [lo, hi) with the least ratio
    |S cap [1, m]| / m, where bit x of ``member`` marks x in S; needs
    1 <= lo < hi.

    A member at m cannot lower the ratio (count <= m - 1 before it); in a
    run of gaps the count is fixed and m grows, so only a run's last m, a
    gap followed by a member or the window's last m, can set a new minimum.
    A first pass counts the members of each ``_DENSITY_BLOCK``-wide block
    of the window, and the least ratio U at a block's last m bounds the
    minimum from above.  No m in a block has a ratio below (members before
    the block) / (the block's last m), so only the blocks where that is at
    most U are scanned run by run, in order, and the first m wins a tie.
    """
    count = bin(member & ((1 << (lo + 1)) - 2)).count("1")
    width = hi - lo - 1
    # window[i] marks lo + 1 + i; the "1" past its end closes the last gap run
    window = format(member >> (lo + 1), "b")[::-1].ljust(width, "0")[:width] + "1"
    best_count, best_m = count, lo
    bound_count, bound_m = count, lo
    blocks = []  # (first index, end index, members in [1, lo + first])
    for first in range(0, width, _DENSITY_BLOCK):
        end = min(first + _DENSITY_BLOCK, width)
        blocks.append((first, end, count))
        count += window.count("1", first, end)
        if count * bound_m < bound_count * (lo + end):
            bound_count, bound_m = count, lo + end
    for first, end, before in blocks:
        if before * bound_m > bound_count * (lo + end):
            continue
        m = lo + first
        # the run cut off at the block's end is scanned with the next block
        for members_before, gaps in enumerate(window[first : end + 1].split("1")[:-1]):
            m += len(gaps)
            if gaps and (before + members_before) * best_m < best_count * m:
                best_count, best_m = before + members_before, m
            m += 1  # the member that ends the run
    return best_count, best_m


def lower_density_estimate(bound: int) -> Fraction:
    """Estimator for the lower asymptotic density of the two-square sums.

    The ratio |S2 cap [1, m]| / m oscillates with period 4x in m, so the
    liminf is approximated by the minimum ratio over the final full period
    [bound/4, bound).  Pointwise ratios at round powers sit near the top of
    the oscillation and are not representative.
    """
    _check_ints(bound=bound)
    if bound < 8:
        raise ValueError("bound too small for a full period")
    # the scan reads no bit past its window, so it shares the [0, bound]
    # mask of two_squares_density(bound); sumset_table rejects a bound
    # past MAX_BOUND
    member = _two_square_sums(bound + 1 if bound < MAX_BOUND else bound)
    return Fraction(*_window_minimum(member, bound // 4, bound))


def density_floor_holds(lo: int, hi: int, ratio: Fraction) -> bool:
    """Whether the two-square density is >= ratio for every m in [lo, hi)."""
    _check_ints(lo=lo, hi=hi)
    if lo < 1:
        raise ValueError("lo must be positive")
    if lo >= hi:
        return True
    member = sumset_table(GroundSetKind.BINARY_SQUARE, hi, 2).reach[2]
    count, m = _window_minimum(member, lo, hi)
    return count * ratio.denominator >= ratio.numerator * m


def _distinct_sums(left: list[int], right: list[int], modulus: int) -> int:
    """|{s + t : s in left, t in right}|, counted one residue class of
    s + t mod ``modulus`` at a time.

    Equal sums share a class, so the per-class counts add up exactly.  A
    class that one (left class, t) pair alone reaches holds as many sums as
    that left class has distinct values, since adding t is one-to-one;
    only the other classes are collected, one class's sums at a time.
    """
    left_classes: dict[int, list[int]] = {}
    for s in left:
        left_classes.setdefault(s % modulus, []).append(s)
    distinct = {s_class: len(set(ss)) for s_class, ss in left_classes.items()}
    right_classes: dict[int, list[int]] = {}
    for t in right:
        right_classes.setdefault(t % modulus, []).append(t)
    total = 0
    for r in range(modulus):
        pairs = [
            (s_class, t)
            for s_class in left_classes
            for t in right_classes.get((r - s_class) % modulus, ())
        ]
        if len(pairs) == 1:
            total += distinct[pairs[0][0]]
        else:
            total += len({s + t for s_class, t in pairs for s in left_classes[s_class]})
    return total


def sumset_uniqueness(n: int) -> int:
    """Cardinality of {s + t : s a square of length 2n, t of length 2n+2}.

    Distinctness of all pairwise sums makes this 2**(2n-1).  The sums are
    counted per class mod 2**n + 1: every left square a(2**n + 1) lies in
    class 0, and the right squares' classes all differ, so each class is
    reached by one right square alone and counted without building its
    2**(n-1) sums.
    """
    _check_ints(n=n)
    if not 1 <= n <= 12:
        raise ValueError("n must be in [1, 12]")
    left = squares_of_length(2 * n)
    right = squares_of_length(2 * n + 2)
    return _distinct_sums(left, right, (1 << n) + 1)


def residue_formula(m: int, g: int, c: int) -> int:
    """c(2**g + 1) mod (2**m + 1), written without reduction.

    With c = t*2**(m-g) + u the value is t(2**(m-g) - 1) + u(2**g + 1);
    valid for m/2 < g < m and 2**(g-1) <= c < 2**g.
    """
    if not (0 < g < m and 2 * g > m):
        raise ValueError("need m/2 < g < m")
    if not (1 << (g - 1)) <= c < (1 << g):
        raise ValueError("need 2**(g-1) <= c < 2**g")
    t, u = divmod(c, 1 << (m - g))
    return t * ((1 << (m - g)) - 1) + u * ((1 << g) + 1)


def congruence_two_solutions(max_m: int) -> list[tuple[int, int]]:
    """(m, g) pairs admitting c with c(2**g + 1) == 2 (mod 2**m + 1) in the
    range of :func:`residue_formula`."""
    found = []
    for m in range(2, max_m + 1):
        for g in range(m // 2 + 1, m):
            for c in range(1 << (g - 1), 1 << g):
                if residue_formula(m, g, c) == 2:
                    found.append((m, g))
                    break
    return found


def power_of_two_short_representations(n: int) -> list[tuple[int, ...]]:
    """All multisets of at most 3 positive binary squares summing to 2**n,
    each sorted descending.

    The pairs of summands below 2**n grow about 4 times per step of n, so a
    sweep first marks the sums of exactly two positive binary squares, and
    a smallest summand a whose rest 2**n - a is not one of them is skipped
    without trying its second summands.  n is capped at 25, where the call
    already allocates about 23 MB at its peak.
    """
    _check_ints(n=n)
    if not 1 <= n <= 25:
        raise ValueError("n must be in [1, 25]")
    target = 1 << n
    bound = target + 1
    positives = [
        v
        for v in ground_set_upto(GroundSetKind.BINARY_SQUARE, bound)
        if 0 < v <= target
    ]
    ground = [p for p in ground_progressions(GroundSetKind.BINARY_SQUARE, bound) if p[0]]
    pairs = _shift_or_level(_shift_or_level(1, ground, bound), ground, bound)
    # one byte string, since shifting a bound-bit int per summand costs more
    # than the pair loop it saves
    pair_bits = pairs.to_bytes((bound + 7) // 8, "little")
    members = set(positives)
    out = []
    if target in members:
        out.append((target,))
    for idx, a in enumerate(positives):
        rest = target - a
        if rest < a:
            break
        if rest in members:
            out.append((rest, a))
        if not pair_bits[rest >> 3] >> (rest & 7) & 1:
            continue
        for b in positives[idx:]:
            c = rest - b
            if c < b:
                break
            if c in members:
                out.append((c, b, a))
    return out


def optimality_check(max_n: int) -> dict[int, list[tuple[int, ...]]]:
    """For odd n <= max_n, the representations of 2**n as sums of at most 3
    positive binary squares.  Empty list = no representation."""
    if not 1 <= max_n <= 25:
        raise ValueError("max_n must be in [1, 25]")
    return {
        n: power_of_two_short_representations(n) for n in range(1, max_n + 1, 2)
    }


# the witness small paths: squares4 below 2**17 (k = 4, bit lengths 1..17),
# square-power (k = 2) and generalized (k = 3) below 2**10 (1..10 each)
@lru_cache(maxsize=37)
def _search_tables(
    kind: GroundSetKind, k: int, bits: int
) -> tuple[SumsetTable, tuple[int, ...]]:
    """The table below 2**bits and the members there, largest first."""
    bound = 1 << bits
    return sumset_table(kind, bound, k), tuple(ground_set_upto(kind, bound)[::-1])


def decompose_brute(value: int, kind: GroundSetKind, k: int) -> list[int] | None:
    """One length-k summand list over the ground set, or None.

    Searches greedily from the largest member, guided by the table of
    ``value``'s bit length so dead branches are never entered; reach bits up
    to ``value`` do not depend on the table's bound.  Tables up to
    ``_CACHED_BITS`` bits are cached; larger ones live for the call only.
    Works up to 2**24 and ``MAX_SUMMANDS`` summands.
    """
    _check_ints(value=value, k=k)
    if value < 0 or value >= MAX_BOUND:
        raise ValueError("value must lie in [0, 2**24)")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > MAX_SUMMANDS:
        raise ValueError(f"k {k} exceeds the supported maximum {MAX_SUMMANDS}")
    bits = max(value.bit_length(), 1)
    search = _search_tables if bits <= _CACHED_BITS else _search_tables.__wrapped__
    table, members = search(kind, k, bits)
    levels = table.reach
    if not levels[k] >> value & 1:
        return None
    parts = []
    remaining = value
    for level in range(k, 0, -1):
        for g in members:
            if g <= remaining and levels[level - 1] >> (remaining - g) & 1:
                parts.append(g)
                remaining -= g
                break
        else:
            raise AssertionError("reachable value lost during backtracking")
    if remaining:
        raise AssertionError(f"backtracking left {remaining} of {value} unassigned")
    return parts


def profile_sum_mask(
    length_counts: list[tuple[int, int]], bound: int, generalized: bool = False
) -> int:
    """Bitmask of sums using exactly ``count`` squares of each exact canonical
    length (generalized: any half-block value, padded length).

    ``length_counts`` pairs are (canonical length, count) with even lengths.
    """
    _check_ints(bound=bound)
    if not 0 < bound <= MAX_BOUND:
        raise ValueError(f"bound {bound} outside [1, 2**24]")
    acc = 1
    for two_n, count in length_counts:
        _check_ints(length=two_n, count=count)
        if two_n % 2 or two_n <= 0 or count < 0:
            raise ValueError("summand lengths must be positive and even, and counts non-negative")
        n = two_n // 2
        if generalized:
            block = [(0, (1 << n) + 1, 1 << n)]  # every half-block a < 2**n
        else:
            block = [length_progression(two_n)]
        for _ in range(count):
            acc = _shift_or_level(acc, block, bound)
            if not acc:
                break
    return acc


def square_power_mask(bound: int, max_squares: int = 2, max_powers: int = 2) -> int:
    """Bitmask of sums of at most ``max_squares`` binary squares plus at most
    ``max_powers`` powers of two."""
    _check_ints(max_powers=max_powers)
    if max_powers < 0:
        raise ValueError("max_powers must be non-negative")
    acc = sumset_table(GroundSetKind.BINARY_SQUARE, bound, max_squares).reach[
        max_squares
    ]
    powers = ground_progressions(GroundSetKind.POWER_OF_TWO, bound)
    for _ in range(max_powers):
        acc |= _shift_or_level(acc, powers, bound)
    return acc


def verify_is_binary_square_consistency(bound: int) -> bool:
    """Membership agreement between the halves test and ground-set sweep."""
    members = set(ground_set_upto(GroundSetKind.BINARY_SQUARE, bound))
    return all((v in members) == is_binary_square(v) for v in range(bound))
