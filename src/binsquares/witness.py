"""Explicit decompositions with certificates.

Small inputs go through the exhaustive sumset tables.  Large inputs fold
into a tagged word and run through the union of a machine family's cover,
the members its theorem is proved on (:func:`lemma_machines.cover_runtime`),
compiled once per family into the path kernel of :mod:`automata`:
a forward pass keeps one state mask per word position, a backward pass
keeps the states that still reach the chosen final state, and a greedy
walk takes the lowest such state at each step.  The kernel lives as long
as the process and remembers the whole-mask steps it takes, so the
frontiers that come back from word to word cost one dict lookup each
after the first time.  Every value from the machine floors up has such a
path: ``verify`` proves that the cover union accepts every word of the
syntax checker from the family's gate up, and the floors sit at or above
the gates.  The accepting path lands inside exactly one member, which the
cover runtime decodes into squares and powers of two.  Every returned
decomposition is re-verified by predicate and sum before it leaves this
module."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .automata import accepting_path
from .folding import fold
from .lemma_machines import cover_runtime
from .numberforms import (
    GroundSetKind,
    is_binary_square,
    is_generalized_binary_square,
    is_power_of_two,
    square_half_width,
)
from .oracle import decompose_brute

ROLE_SQUARE = "BinarySquare"
ROLE_GENERALIZED = "GeneralizedBinarySquare"
ROLE_POWER = "PowerOfTwo"

# a-odd is proved from 13 bits up and a-even from 18 (`cli._VERIFY_TARGETS`),
# so the even gate sets this floor; 2^16 would also be sound, since 17-bit
# values fold into odd words, and waits until the coverage bounds share one table
_MACHINE_FLOOR = 1 << 17
_SHORT_FLOOR = 1 << 10  # mixed and generalized families from 11 bits up
_LAST_EXCEPTION = 686


class NotRepresentable(ValueError):
    """The value has no decomposition of the requested shape."""

    def __init__(self, value: int, kind: str) -> None:
        super().__init__(f"{value} is not a sum of {kind}")
        self.value = value
        self.kind = kind


class InvalidInput(ValueError):
    """The value lies outside the operation's stated domain."""


@dataclass(frozen=True)
class Decomposition:
    """A target with its certified parts, each tagged by role.

    Machine-backed results name the member profile that accepted, the
    states the path search visited summed over word positions,
    ``frontier_max``, the most states alive at any one position,
    ``stage_seconds``, the seconds of each stage by name: "fold" the value,
    find the accepting "path", "replay" it into summands and "verify" the
    result, and ``path_memo_hits``, the path search's forward and backward
    steps that the cover kernel's memo answered.  Table-backed results
    leave these empty, with ``path_memo_hits`` None.  The stage seconds
    depend on the host and the memo hits on what the process decomposed
    before, so neither takes part in comparisons.
    """

    target: int
    parts: tuple[tuple[int, str], ...]
    profile: str = ""
    states_visited: int = 0
    frontier_max: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict, compare=False)
    path_memo_hits: int | None = field(default=None, compare=False)

    def values(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.parts)

    def verify(self) -> None:
        if sum(self.values()) != self.target:
            raise AssertionError(f"parts do not sum to {self.target}")
        for value, role in self.parts:
            if role == ROLE_SQUARE:
                ok = value == 0 or is_binary_square(value)
            elif role == ROLE_GENERALIZED:
                ok = is_generalized_binary_square(value)
            elif role == ROLE_POWER:
                ok = is_power_of_two(value)
            else:
                ok = False
            if not ok:
                raise AssertionError(f"part {value} fails its {role} predicate")


# -- machine-path plumbing -------------------------------------------------


def _machine_decompose(value: int, family: str):
    """The squares and powers of two on an accepting path, with the path's
    statistics and stage seconds as :class:`Decomposition` fields."""
    runtime = cover_runtime(family)
    started = time.perf_counter()
    word = fold(value)
    folded = time.perf_counter()
    path = accepting_path(runtime.kernel, word.ids)
    if path.states is None:
        raise NotRepresentable(value, family)
    found = time.perf_counter()
    profile, squares, powers = runtime.replay(word, path.states)
    seconds = {"fold": folded - started, "path": found - folded, "replay": time.perf_counter() - found}
    stats = {
        "profile": profile.label,
        "states_visited": path.visited,
        "frontier_max": path.frontier_max,
        "stage_seconds": seconds,
        "path_memo_hits": path.memo_hits,
    }
    return squares, powers, stats


def _final(target, raw_parts, role, stats: dict | None = None) -> Decomposition:
    return _certified(target, tuple((v, role) for v in raw_parts), stats)


def _certified(target, parts, stats: dict | None = None) -> Decomposition:
    dec = Decomposition(target, parts, **(stats or {}))
    started = time.perf_counter()
    dec.verify()
    if stats is not None:
        # the result's own dict, completed before the result is returned
        dec.stage_seconds["verify"] = time.perf_counter() - started
    return dec


# -- public operations -----------------------------------------------------


def decompose(value: int) -> Decomposition:
    """Four binary squares summing to a value above the exception range."""
    if value < 0:
        raise InvalidInput("value must be a natural number")
    if value <= _LAST_EXCEPTION:
        parts = decompose_brute(value, GroundSetKind.BINARY_SQUARE, 4)
        if parts is None:
            raise NotRepresentable(value, "four binary squares")
        raise InvalidInput(f"{value} is below the guaranteed range (> 686)")
    if value < _MACHINE_FLOOR:
        parts = decompose_brute(value, GroundSetKind.BINARY_SQUARE, 4)
        if parts is None:
            raise AssertionError(f"{value} unexpectedly unrepresentable")
        return _final(value, parts, ROLE_SQUARE)
    family = "a-odd" if value.bit_length() % 2 else "a-even"
    squares, powers, stats = _machine_decompose(value, family)
    if powers:
        raise AssertionError("four-squares mode must produce no powers of two")
    squares += [0] * (4 - len(squares))
    dec = _final(value, squares, ROLE_SQUARE, stats)
    if len(dec.parts) != 4:
        raise AssertionError("four-squares mode must produce four parts")
    return dec


def decompose_square_power(value: int) -> Decomposition:
    """At most two binary squares plus at most two powers of two."""
    if value < 0:
        raise InvalidInput("value must be a natural number")
    if value < _SHORT_FLOOR:
        pads = [()] + [((1 << a),) for a in range(10)]
        pads += [
            ((1 << a), (1 << b)) for a in range(10) for b in range(a, 10)
        ]
        for pad in pads:
            rest = value - sum(pad)
            if rest < 0:
                continue
            squares = decompose_brute(rest, GroundSetKind.BINARY_SQUARE, 2)
            if squares is None:
                continue
            parts = [(v, ROLE_SQUARE) for v in squares if v]
            parts += [(p, ROLE_POWER) for p in pad]
            return _certified(value, tuple(parts))
        raise NotRepresentable(value, "two squares and two powers")
    family = f"square-power-{'odd' if value.bit_length() % 2 else 'even'}"
    squares, powers, stats = _machine_decompose(value, family)
    parts = [(v, ROLE_SQUARE) for v in squares] + [(p, ROLE_POWER) for p in powers]
    return _certified(value, tuple(parts), stats)


def decompose_generalized(value: int) -> Decomposition:
    """Exactly three generalized binary squares (zeros count)."""
    if value < 0:
        raise InvalidInput("value must be a natural number")
    if value < _SHORT_FLOOR:
        parts = decompose_brute(value, GroundSetKind.GENERALIZED_BINARY_SQUARE, 3)
        if parts is None:
            raise NotRepresentable(value, "three generalized binary squares")
        return _final(value, parts, ROLE_GENERALIZED)
    family = f"generalized-{'odd' if value.bit_length() % 2 else 'even'}"
    squares, powers, stats = _machine_decompose(value, family)
    if powers or len(squares) != 3:
        raise AssertionError("generalized mode must produce three squares")
    return _final(value, squares, ROLE_GENERALIZED, stats)


def render_part(value: int, role: str) -> str:
    """Text form with the repeated-half structure made visible."""
    if value == 0:
        return "0"
    bits = format(value, "b")
    if role == ROLE_POWER:
        return f"{value} = {bits}"
    width = square_half_width(value)
    if width is None:
        raise ValueError(f"{value} has no repeated-half form")
    half = format(value >> width, "b").zfill(width)
    return f"{value} = {bits} = ({half})({half})"
