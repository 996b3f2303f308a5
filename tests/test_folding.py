"""Folding round trips, tag layouts, and the chain syntax checkers."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsquares.folding import (
    LOOP_MIN,
    SINGLE_TAGS,
    FoldedWord,
    Symbol,
    alphabet_for,
    fold,
    pair_tags,
    render_word,
    syntax_checker,
    unfold,
)
from binsquares.numberforms import from_bits


def test_pair_tag_layouts():
    assert pair_tags("odd", 1) == ("e",)
    assert pair_tags("odd", 2) == ("d", "e")
    assert pair_tags("odd", 3) == ("c", "d", "e")
    assert pair_tags("odd", 4) == ("b", "c", "d", "e")
    assert pair_tags("odd", 6) == ("a", "a", "b", "c", "d", "e")
    assert pair_tags("even", 1) == ("e",)
    assert pair_tags("even", 2) == ("d", "e")
    assert pair_tags("even", 3) == ("a", "d", "e")
    assert pair_tags("even", 4) == ("a", "b", "d", "e")
    assert pair_tags("even", 7) == ("a", "b", "c", "c", "c", "d", "e")
    with pytest.raises(ValueError):
        pair_tags("odd", 0)
    with pytest.raises(ValueError):
        pair_tags("both", 3)


def test_fold_small_even_by_hand():
    w = fold(43)  # bits 1,1,0,1,0,1
    assert w.parity == "even"
    assert w.pair_count == 1
    assert w.render() == "[1,1]e 0f 1g 0h 1i"
    assert w.value() == 43


def test_fold_odd_by_hand():
    value = 0b1010011001101  # 13 bits
    w = fold(value)
    assert w.parity == "odd"
    assert w.source_length == 13
    tags = tuple(s.tag for s in w.symbols)
    assert tags == ("a", "a", "b", "c", "d", "e", "f")
    # pair k carries [bit (6+k), bit k]
    assert w.symbols[0] == Symbol("a", (1, 1))
    assert w.symbols[6] == Symbol("f", (1,))
    assert w.value() == value


def test_fold_round_trips_exhaustively():
    for n in range(3, 16, 2):
        for value in range(1 << (n - 1), 1 << n):
            w = fold(value)
            assert w.source_length == n
            assert unfold(w.symbols) == value
    for n in range(6, 15, 2):
        for value in range(1 << (n - 1), 1 << n):
            w = fold(value)
            assert w.source_length == n
            assert unfold(w.symbols) == value


@st.composite
def long_values(draw):
    """A value of 16 to 5000 bits, odd and even lengths alike."""
    n = draw(st.integers(16, 5000))
    return draw(st.integers(1 << n - 1, (1 << n) - 1))


@settings(max_examples=150)
@given(long_values())
def test_fold_round_trips_long_values(value):
    word = fold(value)
    assert word.source_length == value.bit_length()
    assert unfold(word.symbols) == value


def bin_fold(value):
    """The folded word of a value, its letters read off ``bin``."""
    bits = [int(c) for c in reversed(bin(value)[2:])]
    parity = "odd" if len(bits) % 2 else "even"
    singles = SINGLE_TAGS[parity]
    i = (len(bits) - len(singles)) // 2
    pairs = [Symbol(tag, (bits[i + k], bits[k])) for k, tag in enumerate(pair_tags(parity, i))]
    return tuple(pairs) + tuple(Symbol(tag, (bits[2 * i + t],)) for t, tag in enumerate(singles))


def bin_unfold(word):
    """The value of a folded word, its digits written out for ``int``."""
    pairs = [s for s in word if s.is_pair]
    lsd_first = [p.bits[1] for p in pairs] + [p.bits[0] for p in pairs]
    lsd_first += [s.bits[0] for s in word if not s.is_pair]
    return int("".join(map(str, reversed(lsd_first))), 2)


@settings(max_examples=150)
@given(st.integers(5, 5000).flatmap(lambda n: st.integers(1 << n - 1, (1 << n) - 1)))
def test_fold_and_unfold_agree_with_bin_up_to_5000_bits(value):
    word = fold(value).symbols
    assert word == bin_fold(value)
    assert unfold(word) == bin_unfold(word) == value
    assert fold(unfold(word)).symbols == word


def test_fold_rejects_short_values():
    # 1- and 2-bit values are too short for any fold; 4-bit ones miss the
    # even minimum of 6; 5-bit values fold fine.
    for value in (0, 1, 2, 3, 8, 12, 15):
        with pytest.raises(ValueError):
            fold(value)
    assert fold(16).source_length == 5


def test_unfold_rejects_malformed_words():
    good = fold(0b1010011001101).symbols
    swapped = (good[2], good[1]) + (good[0],) + good[3:]
    with pytest.raises(ValueError):
        unfold(swapped)
    with pytest.raises(ValueError):
        unfold(good[:-1])  # no single run at all
    mixed = good[:-1] + (Symbol("a", (1, 1)),)
    with pytest.raises(ValueError):
        unfold(mixed)
    zero_top = good[:-1] + (Symbol("f", (0,)),)
    with pytest.raises(ValueError):
        unfold(zero_top)
    even_word = fold(43).symbols
    shuffled = even_word[:1] + (even_word[2], even_word[1]) + even_word[3:]
    with pytest.raises(ValueError):
        unfold(shuffled)
    # dropping a leading pair leaves a valid layout for a 2-bit-shorter value
    v = unfold(good)
    expected = ((v >> 1) & 31) | (((v >> 7) & 31) << 5) | (1 << 10)
    assert unfold(good[1:]) == expected
    assert isinstance(unfold(good[3:]), int)


def test_unfold_accepts_truncated_layouts():
    # c d e f is the 7-bit layout
    word = (Symbol("c", (1, 0)), Symbol("d", (0, 1)), Symbol("e", (1, 1)), Symbol("f", (1,)))
    assert render_word(word) == "[1,0]c [0,1]d [1,1]e 1f"
    assert unfold(word) == 110
    assert fold(110).symbols == word


# 1.0, True, 0.0 and False compare equal to a bit, but are not the ints 0 and 1
@pytest.mark.parametrize("bit", [1.0, True, 0.0, False])
def test_bits_must_be_the_ints_zero_and_one(bit):
    with pytest.raises(ValueError, match="malformed symbol payload"):
        Symbol("c", (bit, 0))
    with pytest.raises(ValueError, match="malformed symbol payload"):
        Symbol("f", (bit,))
    with pytest.raises(ValueError, match="digits must be 0 or 1"):
        from_bits((bit, 1))
    # the word of 110 with its first high bit replaced
    word = fold(110).symbols
    with pytest.raises(ValueError, match="malformed symbol payload"):
        unfold((Symbol("c", (bit, 0)),) + word[1:])


def test_alphabet_sizes():
    assert len(alphabet_for("odd")) == 21
    assert len(alphabet_for("even")) == 27
    assert Symbol("f", (0,)) not in alphabet_for("odd").symbols
    assert Symbol("i", (0,)) not in alphabet_for("even").symbols


def test_symbol_render_and_order():
    pair, single = Symbol("b", (1, 0)), Symbol("x", (0,))
    assert pair.is_pair and not single.is_pair
    assert pair.render() == str(pair) == "[1,0]b"
    assert single.render() == str(single) == "0x"
    assert sorted([Symbol("x", (1,)), single]) == [single, Symbol("x", (1,))]


def test_symbol_rejects_bad_payload():
    with pytest.raises(ValueError):
        Symbol("a", (0, 1, 1))
    with pytest.raises(ValueError):
        Symbol("a", (2,))


def test_alphabet_ids_answer_tag_and_bits_keys():
    # a Symbol hashes as its (tag, bits) tuple, so the alphabet's one id
    # table serves fold, the checkers and the machine generators
    for parity in ("odd", "even"):
        alphabet = alphabet_for(parity)
        assert list(alphabet.ids) == list(alphabet.symbols)
        for k, symbol in enumerate(alphabet.symbols):
            assert alphabet.ids[symbol.tag, symbol.bits] == k == alphabet.id_of(symbol)


def count_words(nfa, length):
    vec = {q: 1 for q in nfa.initial}
    for _ in range(length):
        nxt = {}
        for q, c in vec.items():
            for sym_id, dsts in nfa.transitions[q].items():
                for d in dsts:
                    nxt[d] = nxt.get(d, 0) + c
        vec = nxt
    return sum(c for q, c in vec.items() if q in nfa.final)


def test_checker_state_counts():
    assert syntax_checker("odd", 13).num_states == 8
    assert syntax_checker("odd", 11).num_states == 7
    assert syntax_checker("even", 18).num_states == 12
    assert syntax_checker("even", 12).num_states == 9


def test_checker_bounds_are_validated():
    with pytest.raises(ValueError):
        syntax_checker("odd", 12)
    with pytest.raises(ValueError):
        syntax_checker("odd", 9)
    with pytest.raises(ValueError):
        syntax_checker("even", 13)
    with pytest.raises(ValueError):
        syntax_checker("even", 10)


@pytest.mark.parametrize("parity, length", [("odd", 11.0), ("even", 12.0), ("odd", True), ("odd", "11")])
def test_checker_length_must_be_an_int(parity, length):
    # the layouts are cached, and 11.0 == 11 must not find the entry of 11
    syntax_checker(parity, LOOP_MIN[parity])
    with pytest.raises(ValueError, match="length must be an int"):
        syntax_checker(parity, length)


def test_odd_checker_language():
    at_13 = syntax_checker("odd", 13)
    at_11 = syntax_checker("odd", 11)
    for value in range(1 << 12, 1 << 13):
        word = fold(value).symbols
        assert at_13.accepts(word)
        assert at_11.accepts(word)
    for value in range(1 << 10, 1 << 11):
        word = fold(value).symbols
        assert not at_13.accepts(word)
        assert at_11.accepts(word)
    for value in range(1 << 8, 1 << 9):
        assert not at_11.accepts(fold(value).symbols)


def test_even_checker_language():
    at_18 = syntax_checker("even", 18)
    at_12 = syntax_checker("even", 12)
    for value in range(1 << 11, 1 << 12):
        word = fold(value).symbols
        assert at_12.accepts(word)
        assert not at_18.accepts(word)
    rng = random.Random(21)
    for _ in range(500):
        value = rng.randrange(1 << 17, 1 << 18)
        word = fold(value).symbols
        assert at_18.accepts(word)
        assert at_12.accepts(word)


def test_checker_counts_match_fold_counts():
    # words with i pairs stand for n-bit numbers, 2**(n-1) of them
    odd = syntax_checker("odd", 13)
    assert count_words(odd, 6) == 0
    assert count_words(odd, 7) == 1 << 12
    assert count_words(odd, 8) == 1 << 14
    even = syntax_checker("even", 12)
    assert count_words(even, 7) == 0
    assert count_words(even, 8) == 1 << 11
    assert count_words(even, 9) == 1 << 13
    tall = syntax_checker("even", 18)
    assert count_words(tall, 10) == 0
    assert count_words(tall, 11) == 1 << 17


def test_folded_word_properties():
    w = fold(0b110110001111001010)
    assert isinstance(w, FoldedWord)
    assert w.parity == "even"
    assert w.source_length == 18
    assert w.pair_count == 7
    assert w.symbols == alphabet_for("even").decode(w.ids)


# sha256 of fold_id_lines() and checker_lines(), pinned while fold still
# built Symbols and the alphabet encoded them, and while syntax_checker
# wrote out its own chain: the letter table and the layout table must
# reproduce both byte for byte
FOLD_IDS_DIGEST = "530dabb7a2fba0f5189570ca9e956ecbed867612049a1e2bd391c88ee34bbcb3"
CHECKERS_DIGEST = "8dbe49aa1cefbae26fd3a6586ac3171a3e0a94754f81e1d68507481de472c12e"


def fold_id_lines():
    values = []
    for value in range(1 << 12):
        try:
            fold(value)
        except ValueError:
            continue
        values.append(value)
    rng = random.Random(4001)
    for _ in range(40):
        bits = rng.randrange(64, 4002)
        values.append(rng.randrange(1 << (bits - 1), 1 << bits))
    assert len(values) == 4124
    for value in values:
        yield repr((value, fold(value).ids))


def checker_lines():
    for parity, lengths in (("odd", range(11, 42, 2)), ("even", range(12, 43, 2))):
        for length in lengths:
            nfa = syntax_checker(parity, length)
            rows = [sorted((sym, sorted(dsts)) for sym, dsts in row.items()) for row in nfa.transitions]
            yield repr((parity, length, nfa.num_states, sorted(nfa.initial), sorted(nfa.final), rows))


def test_fold_ids_are_pinned():
    text = "\n".join(fold_id_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == FOLD_IDS_DIGEST


def test_checkers_are_pinned():
    text = "\n".join(checker_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == CHECKERS_DIGEST
