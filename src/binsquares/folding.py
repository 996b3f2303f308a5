"""Folding numbers into two-column tagged words.

An n-bit number is written least significant bit first and folded in half:
bit k and bit i+k travel together as the pair [high, low], leaving the top
bits as tagged singles.  Tags partition a word into zones, so a transition
can tell from the symbol alone how far along the fold it is.

Odd lengths n = 2i+1 fold into i pairs, tagged a...a b c d e, plus the
leading bit as the single 1f.  Even lengths n = 2i+4 fold the low 2i bits
into pairs tagged a b c...c d e and keep four singles f g h i, the last
being the leading 1.  Short words truncate the tag runs: the interior run
(a for odd, c for even) empties first, then b drops, then a.

This module is the only one that knows the folded word: a letter is a
:class:`Symbol`, and :mod:`automata` only sorts, hashes and prints them.
Letters travel as ids: the ``ids`` of each parity's alphabet
(:func:`alphabet_for`) are the one ``(tag, bits) -> id`` table, and
:func:`fold` reads a value's bits straight into it.  One layout table
(:func:`fold_layout`) gives the tag moves of each position, and drives both
the syntax checkers and the machine generators.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Iterable, NamedTuple

from .automata import Alphabet, Nfa
from .numberforms import from_bits, to_bits

PAIR_TAGS = ("a", "b", "c", "d", "e")
SINGLE_TAGS = {"odd": ("f",), "even": ("f", "g", "h", "i")}
# source bits outside the pair block, one per single: an n-bit word of the
# parity has (n - SPAN[parity]) / 2 pairs
SPAN = {parity: len(tags) for parity, tags in SINGLE_TAGS.items()}
# the interior run absorbs the slack between lengths; the looping chain
# starts where the fold has an a pair (odd) or an a and a b pair (even)
INTERIOR = {"odd": "a", "even": "c"}
LOOP_MIN = {"odd": 11, "even": 12}


class Symbol(namedtuple("Symbol", "tag bits")):
    """One letter of a folded word: a ``tag`` plus a tuple of one or two
    ``bits``.

    Two bits make a fold pair (high half bit first), one bit a tail single.
    Symbols order as (tag, bits) tuples, which sets every alphabet's order,
    and hash as them, so an alphabet's ``ids`` answer (tag, bits) keys.
    """

    __slots__ = ()

    def __new__(cls, tag: str, bits: tuple[int, ...]) -> Symbol:
        if not isinstance(tag, str) or not isinstance(bits, tuple):
            raise ValueError(f"malformed symbol: {tag!r}, {bits!r}")
        # 1.0 and True compare equal to 1 but are not bits
        bits_ok = all(type(b) is int and b in (0, 1) for b in bits)
        if len(bits) not in (1, 2) or not bits_ok:
            raise ValueError(f"malformed symbol payload: {bits!r}")
        return super().__new__(cls, tag, bits)

    @property
    def is_pair(self) -> bool:
        return len(self.bits) == 2

    def render(self) -> str:
        if self.is_pair:
            return f"[{self.bits[0]},{self.bits[1]}]{self.tag}"
        return f"{self.bits[0]}{self.tag}"

    __str__ = render


def pair_count(parity: str, length: int) -> int:
    """Pair columns of the fold of a ``length``-bit number of the parity."""
    if parity not in SPAN:
        raise ValueError(f"unknown parity {parity!r}")
    if not isinstance(length, int) or isinstance(length, bool):
        raise ValueError(f"length must be an int, not {type(length).__name__}")
    span = SPAN[parity]
    if length % 2 != span % 2:
        raise ValueError(f"length {length} is not {parity}")
    i = (length - span) // 2
    if i < 1:
        raise ValueError(f"length {length} leaves no pair columns")
    return i


def pair_tags(parity: str, pair_count: int) -> tuple[str, ...]:
    """Tag sequence for the pairs of a word with the given pair count."""
    if pair_count < 1:
        raise ValueError("a folded word has at least one pair")
    if parity == "odd":
        base = ("b", "c", "d", "e")
        if pair_count >= 4:
            return ("a",) * (pair_count - 4) + base
        return base[4 - pair_count:]
    if parity == "even":
        tail = ("d", "e")[max(0, 2 - pair_count):]
        room = pair_count - len(tail)
        head = ("a", "b")[: min(room, 2)]
        return head + ("c",) * (room - len(head)) + tail
    raise ValueError(f"unknown parity {parity!r}")


@lru_cache(maxsize=None)
def alphabet_for(parity: str) -> Alphabet:
    """Full symbol set for one parity.

    Final singles exist only with bit 1: a canonical number always has a
    leading 1, so 0f (odd) and 0i (even) label no word at all.
    """
    if parity not in SINGLE_TAGS:
        raise ValueError(f"unknown parity {parity!r}")
    *inner, last = SINGLE_TAGS[parity]
    pairs = [Symbol(tag, (hi, lo)) for tag in PAIR_TAGS for hi in (0, 1) for lo in (0, 1)]
    singles = [Symbol(tag, (bit,)) for tag in inner for bit in (0, 1)]
    return Alphabet(pairs + singles + [Symbol(last, (1,))])


@lru_cache(maxsize=None)
def pair_letters(parity: str) -> dict[str, tuple[int, ...]]:
    """Per pair tag, the ids of its four letters, indexed by 2 * high bit +
    low bit."""
    letters = alphabet_for(parity).ids
    return {
        tag: tuple(letters[tag, (hi, lo)] for hi in (0, 1) for lo in (0, 1))
        for tag in PAIR_TAGS
    }


# typed, so that a length of 11.0 misses the entry of 11 and is refused
@lru_cache(maxsize=None, typed=True)
def fold_layout(parity: str, source_length: int, loop: bool) -> tuple[tuple[tuple[str, int], ...], ...]:
    """The tag chain of the folds of a length: the (tag, next position)
    moves of each position, pairs first, then the tail singles; the last
    position ends the word and has none.

    With ``loop`` the position that reads the tag after the interior run
    also loops on the interior tag, so the chain reads every longer fold of
    the parity as well: the syntax checker's graph, and at ``LOOP_MIN`` the
    positions of the uniform machines.
    """
    i = pair_count(parity, source_length)
    tags = pair_tags(parity, i) + SINGLE_TAGS[parity]
    moves = [[(tag, k + 1)] for k, tag in enumerate(tags)] + [[]]
    if loop:
        if source_length < LOOP_MIN[parity]:
            raise ValueError(f"a looping {parity} chain needs a length of at least {LOOP_MIN[parity]}")
        interior = INTERIOR[parity]
        at = sum(tag <= interior for tag in tags[:i])
        moves[at].insert(0, (interior, at))
    return tuple(map(tuple, moves))


class FoldedWord(NamedTuple):
    """A folded number as letter ids of its parity's alphabet."""

    parity: str
    ids: tuple[int, ...]

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        """The letters the ids stand for, for text and for tests."""
        return alphabet_for(self.parity).decode(self.ids)

    @property
    def pair_count(self) -> int:
        return len(self.ids) - len(SINGLE_TAGS[self.parity])

    @property
    def source_length(self) -> int:
        return 2 * self.pair_count + SPAN[self.parity]

    def value(self) -> int:
        return unfold(self.symbols)

    def render(self) -> str:
        return render_word(self.symbols)


def fold(value: int) -> FoldedWord:
    """Fold a positive number; needs 3 bits (odd) or 6 bits (even)."""
    bits = to_bits(value)
    parity = "odd" if len(bits) % 2 else "even"
    i = pair_count(parity, len(bits))
    quads, letters = pair_letters(parity), alphabet_for(parity).ids
    ids = [quads[tag][2 * hi + lo] for tag, hi, lo in zip(pair_tags(parity, i), bits[i:], bits)]
    ids += [letters[tag, (bits[2 * i + t],)] for t, tag in enumerate(SINGLE_TAGS[parity])]
    return FoldedWord(parity, tuple(ids))


def unfold(symbols: Iterable[Symbol]) -> int:
    """Value of a folded word; rejects malformed tag layouts."""
    word = tuple(symbols)
    split = 0
    while split < len(word) and word[split].is_pair:
        split += 1
    pairs, singles = word[:split], word[split:]
    if any(s.is_pair for s in singles):
        raise ValueError("pair symbol after a single")
    single_tags = tuple(s.tag for s in singles)
    for parity, expected in SINGLE_TAGS.items():
        if single_tags == expected:
            break
    else:
        raise ValueError(f"unrecognized single run {single_tags!r}")
    i = len(pairs)
    if i < 1:
        raise ValueError("a folded word has at least one pair")
    got_tags = tuple(p.tag for p in pairs)
    if got_tags != pair_tags(parity, i):
        raise ValueError(f"pair tags {got_tags!r} do not fit length {i}")
    if singles[-1].bits[0] != 1:
        raise ValueError("leading bit of a folded word must be 1")
    # least significant first: the low bits of the pairs, their high bits,
    # then the singles
    lows = tuple(p.bits[1] for p in pairs)
    highs = tuple(p.bits[0] for p in pairs)
    return from_bits(lows + highs + tuple(s.bits[0] for s in singles))


def syntax_checker(parity: str, min_source_length: int) -> Nfa:
    """Chain recognizer for all folds of the parity at or above a length.

    The interior tag run absorbs the slack: every extra two bits of source
    add one more interior pair, so one looping state covers all lengths.
    """
    layout = fold_layout(parity, min_source_length, True)
    alphabet = alphabet_for(parity)
    # state k is position k; each row takes its moves in order, and a tag's
    # letters in id order
    rows = [
        {sym_id: (nxt,) for tag, nxt in moves for letter, sym_id in alphabet.ids.items() if letter.tag == tag}
        for moves in layout
    ]
    return Nfa(alphabet, len(layout), frozenset({0}), frozenset({len(layout) - 1}), rows)


def render_word(symbols: Iterable[Symbol]) -> str:
    return " ".join(s.render() for s in symbols)
