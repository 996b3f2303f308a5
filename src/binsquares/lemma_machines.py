"""Columnwise-addition recognizers for folded words.

A machine reads a folded word and guesses, column by column, the digits of a
fixed multiset of summands together with the carries of the two addition
chains the word interleaves.  It accepts exactly the words whose bits the
guesses reproduce.  Guessing t equal-width squares at once is a single
guess over the digit alphabet {0..t}: column j of the stacked sum counts how
many of the t squares have bit j set, and the exact-width requirement pins
the top digit to t.  Because such a square repeats its low half, every
summand reduces to one digit stream applied twice, once on the low track and
once, shifted, on the high track.

Relative width decides the bookkeeping.  A summand matching the fold width
consumes each guess on both tracks in the same step.  A narrower summand
meets its high-track columns before the matching low column arrives, so
fresh guesses ride a FIFO from the high track down to the low track, while
its first digits wait in a second queue for the closing low columns.  A
wider summand is the mirror image: low-track guesses ride the FIFO up
toward the high track, and its top digits sit in dedicated slots until the
tail singles consume them.  Carries close the loop: the low chain starts at
zero, the high chain starts at a guessed seam carry, and a run is
consistent only when the low chain ends by producing exactly that seam
carry.  Optional powers of two enter as single-column injections counted
against a budget.

Machines come in two builds, and both walk a layout table of
:mod:`folding`.  Uniform ones walk the looping chain of the minimal syntax
checker (11 bits for odd, 12 for even) and key their rules on tags alone:
the position in each state key is a state of that checker, so a machine's
language lies inside the checker's, and one machine covers every source
length at or above the minimum.  Fixed-length ones walk the loop-free chain
of one length, key on step indices and reach the short layouts the uniform
rules cannot express.

A move carries a guess record: per summand the digits guessed and their
sites ("lo", "hi", "top"), plus the powers of two injected.  Machines keep no
records: a runtime re-expands the source key of a path edge to decode it.

Generation memoises the product of a pair column.  The guess combinations a
column offers, with their digit sums, new slots and guess records, depend
on the position, the slots, the tag and the powers used so far, never on the
two carries.  So each product is computed once per machine, and a state that
shares it only adds its carries to the sums.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as iproduct

from .automata import (
    Nfa,
    NfaBuilder,
    _BitsetStepper,
    _renumber,
    compile_nfa,
    live_states,
    quotient,
    union,
)
from .folding import (
    LOOP_MIN,
    SINGLE_TAGS,
    SPAN,
    FoldedWord,
    alphabet_for,
    fold_layout,
    letter_ids,
    pair_count,
    pair_tags,
)
from .proofcheck import check_backward, check_forward

TOP_KINDS = ("exact", "free", "zero")


def digit_step(addends: tuple[int, ...], carry_in: int) -> tuple[int, int]:
    """One column of multi-operand binary addition: (bit out, carry out)."""
    total = sum(addends) + carry_in
    return total & 1, total >> 1


@dataclass(frozen=True)
class Summand:
    """A block of `count` equal-width squares, `offset` bits narrower than
    the source word (negative offsets mean wider).  `top` says what the
    stacked top digit must be: the full `count` for exact-width squares,
    anything for free halves, zero when the top column would fall outside
    the word."""

    offset: int
    count: int
    top: str = "exact"

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("summand count must be >= 0")
        if self.top not in TOP_KINDS:
            raise ValueError(f"top must be one of {TOP_KINDS}")


@dataclass(frozen=True)
class Profile:
    """A machine recipe: parity, summand blocks, seam carry, power budget."""

    parity: str
    summands: tuple[Summand, ...]
    carry: int
    max_powers: int = 0
    label: str = ""

    def total_count(self) -> int:
        return sum(s.count for s in self.summands)


def alignment(parity: str, offset: int) -> int:
    """Half-width excess of a summand over the fold's pair span.

    Positive: the summand is wider than the pair block and needs top
    slots.  Negative: it is narrower and its guesses ride the high-to-low
    FIFO."""
    num = SPAN[parity] - offset
    if num % 2:
        raise ValueError(f"offset {offset} has the wrong parity for {parity} words")
    align = num // 2
    lo = -2 if parity == "odd" else -1
    hi = 1 if parity == "odd" else 2
    if not lo <= align <= hi:
        raise ValueError(f"offset {offset} not supported for {parity} words")
    return align


class _Generator:
    """Worklist expansion of one machine's reachable state graph."""

    def __init__(
        self,
        parity: str,
        summands: tuple[Summand, ...],
        carry: int,
        max_powers: int,
        source_length: int | None,
    ) -> None:
        if parity not in ("odd", "even"):
            raise ValueError("parity must be 'odd' or 'even'")
        if carry < 0:
            raise ValueError("seam carry must be >= 0")
        self.parity = parity
        self.carry = carry
        self.max_powers = max_powers
        self.active = tuple(s for s in summands if s.count > 0)
        self.aligns = tuple(alignment(parity, s.offset) for s in self.active)
        self.singles = SINGLE_TAGS[parity]
        for s, a in zip(self.active, self.aligns):
            if self.parity == "odd" and a == 1 and s.top != "zero":
                # its top column would sit one past the word
                raise ValueError("a wider odd summand only fits with a zero top")
        if source_length is None:
            self.i = None
            self.layout = fold_layout(parity, LOOP_MIN[parity], True)
        else:
            self.i = pair_count(parity, source_length)
            self.layout = fold_layout(parity, source_length, False)
            for s, a in zip(self.active, self.aligns):
                if a < 0 and self.i < -2 * a:
                    raise ValueError(f"offset {s.offset} needs more pair columns")
                if a > 0 and self.i < a:
                    raise ValueError(f"offset {s.offset} needs more pair columns")
        self.letters = letter_ids(parity)
        # every word ends at the layout's last position, in one accept state
        self.accept = (len(self.layout) - 1,)
        # pair moves by (pos, slots, tag, used), shared by every carry pair;
        # dropped when build() returns, refilled by the keys decoding expands
        self._moves: dict[tuple, list] = {}

    # State layout: (pos, slots, c_lo, c_hi, used) where pos is a position
    # of the fold layout (a state of the minimal syntax checker, uniform, or
    # a step index, fixed), slots holds per-summand bookkeeping, and used
    # counts placed power injections.  The accept key holds only the last
    # position.

    def build(self) -> tuple[Nfa, list[tuple]]:
        """The machine and the generator key of each of its states."""
        builder = NfaBuilder(alphabet_for(self.parity))
        slots = tuple(((), ()) if a else () for a in self.aligns)
        start = (0, slots, 0, self.carry, 0)
        builder.mark_initial(start)
        seen = {start}
        work = [start]
        while work:
            key = work.pop()
            for sym_id, new_key, _ in self.successors(key):
                builder.add_edge(key, sym_id, new_key)
                if new_key not in seen:
                    seen.add(new_key)
                    work.append(new_key)
        if builder.known(self.accept):
            builder.mark_final(self.accept)
        self._moves = {}
        return builder.build(), builder.keys()

    def successors(self, key: tuple) -> list[tuple[int, tuple, tuple]]:
        """Every (symbol id, successor key, guess record) move of a state."""
        pos = key[0]
        step = None if self.i is None else pos
        out: list[tuple] = []
        for tag, nxt in self.layout[pos]:
            if tag in self.singles:
                out.extend(self._single_edges(key, self.singles.index(tag), nxt))
            else:
                out.extend(self._pair_edges(key, tag, nxt, step))
        return out

    # -- pair steps --------------------------------------------------------

    def _pair_edges(
        self, key: tuple, tag: str, next_pos: int, step: int | None
    ) -> list[tuple[int, tuple, tuple]]:
        pos, slots, c_lo, c_hi, used = key
        memo = (pos, slots, tag, used)
        moves = self._moves.get(memo)
        if moves is None:
            moves = self._moves[memo] = self._pair_moves(slots, tag, step, used)
        letters = self.letters
        at_seam = tag == "e"
        out = []
        for add_lo, add_hi, new_slots, used2, data in moves:
            total_lo, total_hi = add_lo + c_lo, add_hi + c_hi
            nc_lo = total_lo >> 1
            if at_seam:
                if nc_lo != self.carry:
                    continue
                nc_lo = 0
            new_key = (next_pos, new_slots, nc_lo, total_hi >> 1, used2)
            out.append((letters[tag, (total_hi & 1, total_lo & 1)], new_key, data))
        return out

    def _pair_moves(
        self, slots: tuple, tag: str, step: int | None, used: int
    ) -> list[tuple[int, int, tuple, int, tuple]]:
        """Every (low add, high add, new slots, new used, guess record) a pair
        column offers, before the carries: one per guess combination and
        power injection."""
        per_summand = [
            self._pair_options(s, a, slot, tag, step)
            for s, a, slot in zip(self.active, self.aligns, slots)
        ]
        injections = self._injections(used)
        out = []
        for combo in iproduct(*per_summand):
            # a profile without summands has one empty combination
            lows, highs, new_slots, guesses = zip(*combo) if combo else ((),) * 4
            base_lo, base_hi = sum(lows), sum(highs)
            for used2, inj_lo, inj_hi in injections:
                data = (guesses, inj_lo, inj_hi)
                out.append((base_lo + inj_lo, base_hi + inj_hi, new_slots, used2, data))
        return out

    def _injections(self, used: int):
        if not self.max_powers:
            return ((used, 0, 0),)
        room = self.max_powers - used
        return tuple(
            (used + lo + hi, lo, hi)
            for lo in range(room + 1)
            for hi in range(room + 1 - lo)
        )

    def _single_injections(self, used: int):
        if not self.max_powers:
            return ((used, 0),)
        room = self.max_powers - used
        return tuple((used + j, j) for j in range(room + 1))

    def _top_values(self, s: Summand) -> tuple[int, ...]:
        if s.top == "exact":
            return (s.count,)
        if s.top == "zero":
            return (0,)
        return tuple(range(s.count + 1))

    def _pair_options(
        self, s: Summand, align: int, slot: tuple, tag: str, step: int | None
    ) -> list[tuple[int, int, tuple, tuple]]:
        """All (low add, high add, new slot, guess records) for one summand."""
        if align == 0:
            last = (tag == "e") if step is None else (step == self.i - 1)
            values = self._top_values(s) if last else range(s.count + 1)
            return [(g, g, (), (("lo", g),)) for g in values]
        if align < 0:
            return self._sub_options(s, -align, slot, tag, step)
        return self._super_options(s, align, slot, tag, step)

    def _sub_options(
        self, s: Summand, delta: int, slot: tuple, tag: str, step: int | None
    ) -> list:
        early, pipe = slot
        full = range(s.count + 1)

        # low track: fresh digits until the waiting queue fills, then the
        # FIFO replays them, and the queue itself drains at the end
        lows: list[tuple[int, tuple, tuple, tuple]] = []
        if step is None:
            # drain beats fill: the queue refills below delta as it drains
            if tag in (("e",) if delta == 1 else ("d", "e")):
                lows.append((early[0], early[1:], pipe, ()))
            elif len(early) < delta:
                for g in full:
                    lows.append((g, early + (g,), pipe, (("lo", g),)))
            else:
                value = pipe[0]
                named_top = (
                    (self.parity == "even" and delta == 1 and tag == "d")
                    or (self.parity == "odd" and delta == 2 and tag == "c")
                )
                if named_top and value not in self._top_values(s):
                    # last replayed digit is the top; only site that names it
                    return []
                lows.append((value, early, pipe[1:], ()))
        else:
            h = self.i - delta
            if step < delta:
                values = self._top_values(s) if step == h - 1 else full
                for g in values:
                    lows.append((g, early + (g,), pipe, (("lo", g),)))
            elif step >= self.i - delta:
                lows.append((early[0], early[1:], pipe, ()))
            else:
                lows.append((pipe[0], early, pipe[1:], ()))

        # high track: push fresh digits while its columns last, then silent
        highs: list[tuple[int, int | None, tuple]] = []
        if step is None:
            push_tags = ("a",) if delta == 2 else ("a", "b", "c")
            if tag in push_tags:
                constrain = self.parity == "odd" and delta == 1 and tag == "c"
                values = self._top_values(s) if constrain else full
                for g in values:
                    highs.append((g, g, (("hi", g),)))
            else:
                highs.append((0, None, ()))
        else:
            limit = self.i - 2 * delta - 1
            if step <= limit:
                values = self._top_values(s) if step == limit else full
                for g in values:
                    highs.append((g, g, (("hi", g),)))
            else:
                highs.append((0, None, ()))

        out = []
        for lo, early2, pipe2, lg in lows:
            for hi, pushed, hg in highs:
                npipe = pipe2 if pushed is None else pipe2 + (pushed,)
                out.append((lo, hi, (early2, npipe), lg + hg))
        return out

    def _super_options(
        self, s: Summand, eps: int, slot: tuple, tag: str, step: int | None
    ) -> list:
        pipe, tops = slot
        out = []
        for g in range(s.count + 1):
            pushed = pipe + (g,)
            lg = (("lo", g),)
            if step is None:
                if self.parity == "odd":
                    # width n+1: the top is pinned to zero, so the first
                    # high column is mute and later ones replay the FIFO
                    if not pipe:
                        out.append((g, 0, (pushed, tops), lg))
                    else:
                        out.append((g, pipe[0], (pushed[1:], tops), lg))
                elif tag == "a":
                    last = eps == 1
                    values = self._top_values(s) if last else range(s.count + 1)
                    for v in values:
                        out.append((g, v, (pushed, (v,)), lg + (("top", v),)))
                elif tag == "b" and eps == 2:
                    for v in self._top_values(s):
                        out.append((g, v, (pushed, tops + (v,)), lg + (("top", v),)))
                else:
                    out.append((g, pipe[0], (pushed[1:], tops), lg))
            else:
                if step < eps:
                    last = step == eps - 1
                    values = self._top_values(s) if last else range(s.count + 1)
                    for v in values:
                        out.append((g, v, (pushed, tops + (v,)), lg + (("top", v),)))
                else:
                    out.append((g, pipe[0], (pushed[1:], tops), lg))
        return out

    # -- tail singles ------------------------------------------------------

    def _single_edges(self, key: tuple, tau: int, next_pos: int) -> list[tuple[int, tuple, tuple]]:
        """One tail column: the high-track carry chains through, and the
        last column must produce a bare 1."""
        _, slots, _, c_hi, used = key
        final = tau == len(self.singles) - 1
        tag = self.singles[tau]
        adds = []
        new_slots = []
        for a, slot in zip(self.aligns, slots):
            value, slot2 = self._single_value(a, slot, tau)
            adds.append(value)
            new_slots.append(slot2)
        no_guesses = tuple(() for _ in self.active)
        out = []
        for used2, inj in self._single_injections(used):
            bit, carry = digit_step((*adds, inj), c_hi)
            data = (no_guesses, inj, 0)
            if final:
                if bit == 1 and not carry:
                    out.append((self.letters[tag, (1,)], self.accept, data))
            else:
                nk = (next_pos, tuple(new_slots), 0, carry, used2)
                out.append((self.letters[tag, (bit,)], nk, data))
        return out

    def _single_value(self, align: int, slot: tuple, tau: int) -> tuple[int, tuple]:
        """A wider summand's last columns land on the tail: FIFO remainder
        first, then the stored top digits, then nothing."""
        if align <= 0:
            return 0, slot
        pipe, tops = slot
        if tau < align:
            return pipe[0], (pipe[1:], tops)
        if tau < 2 * align:
            return tops[tau - align], slot
        return 0, slot


def uniform_machine(
    parity: str,
    summands: tuple[Summand, ...],
    carry: int,
    max_powers: int = 0,
) -> Nfa:
    """Tag-keyed recognizer valid for every source length of the parity at
    or above the layout minimum (11 odd, 12 even)."""
    return _Generator(parity, summands, carry, max_powers, None).build()[0]


def fixed_machine(
    parity: str,
    source_length: int,
    summands: tuple[Summand, ...],
    carry: int,
    max_powers: int = 0,
) -> Nfa:
    """Step-keyed recognizer for one source length, usable below the
    uniform layout minimum."""
    return _Generator(parity, summands, carry, max_powers, source_length).build()[0]


# -- shipped machine families ---------------------------------------------


def odd_square_profiles() -> list[Profile]:
    """Exact-count square mixes for odd lengths n: widths n-1 and n-3
    (A shapes), plus one width n-5 straggler (B shapes)."""
    shapes = [
        ("A", (1, 1)),
        ("A", (2, 1)),
        ("A", (1, 2)),
        ("B", (1, 1, 1)),
        ("A", (2, 2)),
        ("B", (2, 1, 1)),
    ]
    offsets = (1, 3, 5)
    out = []
    for kind, counts in shapes:
        summands = tuple(
            Summand(offsets[k], c) for k, c in enumerate(counts) if c > 0
        )
        for m in range(sum(counts)):
            args = ",".join(str(c) for c in counts)
            out.append(Profile("odd", summands, m, 0, f"{kind}({args},{m})"))
    return out


def even_square_profiles() -> list[Profile]:
    """Exact-count square mixes for even lengths n: widths n down to n-6
    in steps of two, at most one full-width."""
    shapes = [
        (0, 2, 2, 0),
        (0, 3, 1, 0),
        (1, 0, 1, 1),
        (0, 2, 1, 1),
    ]
    offsets = (0, 2, 4, 6)
    out = []
    for counts in shapes:
        summands = tuple(
            Summand(offsets[k], c) for k, c in enumerate(counts) if c > 0
        )
        for m in range(sum(counts)):
            args = ",".join(str(c) for c in counts)
            out.append(Profile("even", summands, m, 0, f"A({args},{m})"))
    return out


def square_power_profiles(parity: str) -> list[Profile]:
    """Small square mixes with room for up to two powers of two."""
    if parity == "odd":
        shapes = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
        offsets = (1, 3)
    else:
        shapes = [
            (0, 0, 0),
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 0, 1),
            (0, 1, 1),
        ]
        offsets = (0, 2, 4)
    out = []
    for counts in shapes:
        summands = tuple(
            Summand(offsets[k], c) for k, c in enumerate(counts) if c > 0
        )
        for m in range(sum(counts) + 2):
            args = ",".join(str(c) for c in counts)
            out.append(Profile(parity, summands, m, 2, f"SP({args},{m})"))
    return out


def generalized_profiles(parity: str) -> list[Profile]:
    """One free-half summand at each of three adjacent widths."""
    if parity == "odd":
        summands = (
            Summand(-1, 1, "zero"),
            Summand(1, 1, "free"),
            Summand(3, 1, "free"),
        )
    else:
        summands = (
            Summand(0, 1, "free"),
            Summand(2, 1, "free"),
            Summand(4, 1, "free"),
        )
    return [Profile(parity, summands, m, 0, f"G({m})") for m in range(3)]


FAMILY_NAMES = (
    "a-odd",
    "a-even",
    "square-power-odd",
    "square-power-even",
    "generalized-odd",
    "generalized-even",
)


def family_profiles(name: str) -> tuple[Profile, ...]:
    """Profile list for a named family, in fixed order."""
    table = {
        "a-odd": odd_square_profiles,
        "a-even": even_square_profiles,
        "square-power-odd": lambda: square_power_profiles("odd"),
        "square-power-even": lambda: square_power_profiles("even"),
        "generalized-odd": lambda: generalized_profiles("odd"),
        "generalized-even": lambda: generalized_profiles("even"),
    }
    if name not in table:
        raise ValueError(f"unknown machine family {name!r}")
    return tuple(table[name]())


def family_members(name: str) -> tuple[tuple[Profile, Nfa], ...]:
    """The (profile, trimmed machine) pairs of a named family, in fixed order."""
    return family_runtime(name).members


class FamilyRuntime:
    """A family's profiles, the disjoint union of their trimmed machines, the
    state where each member starts in it, the generator key of each union
    state and, built on first use, the union's bitset kernel and its proof
    machine.  ``generated_states`` and ``generated_transitions`` total the
    members as generated, before ``trim`` drops their dead states.

    The members are trimmed, so their union is trim as it stands and its
    states number the members one after another.  Only the union is kept:
    ``members`` cuts each member back out of it on request.
    """

    def __init__(self, name: str):
        self.profiles = family_profiles(name)
        members, starts, keys, self._generators = [], [], [], {}
        self.generated_states = self.generated_transitions = 0
        for p in self.profiles:
            self._generators[p] = _Generator(p.parity, p.summands, p.carry, p.max_powers, None)
            nfa, member_keys = self._generators[p].build()
            self.generated_states += nfa.num_states
            self.generated_transitions += nfa.num_transitions()
            live = live_states(nfa)
            members.append(_renumber(nfa, live))
            starts.append(len(keys))
            keys += [member_keys[q] for q in live]
        self.starts = tuple(starts)
        self.union = union(members)
        self.keys = tuple(keys)
        # guess records of the union edges decoded so far
        self._records: dict[tuple[int, int, int], tuple] = {}

    @property
    def members(self) -> tuple[tuple[Profile, Nfa], ...]:
        """The (profile, trimmed machine) pairs, in family order."""
        stops = self.starts[1:] + (self.union.num_states,)
        return tuple(
            (profile, _renumber(self.union, list(range(start, stop))))
            for profile, start, stop in zip(self.profiles, self.starts, stops)
        )

    @cached_property
    def kernel(self) -> _BitsetStepper:
        return compile_nfa(self.union)

    @cached_property
    def proof_machine(self) -> Nfa:
        """The union's bisimulation quotient, which accepts the same words
        with far fewer states, so inclusion on it decides the family's
        theorem.  Both stages are re-checked by :mod:`proofcheck` first,
        which raises :class:`RuntimeError` if one does not keep the
        language."""
        collapsed = quotient(self.union)
        check_forward(self.union, collapsed.middle, collapsed.forward)
        check_backward(collapsed.middle, collapsed.machine, collapsed.backward)
        return collapsed.machine

    def profile_at(self, state: int) -> Profile:
        """The profile of the member that owns a state of the union."""
        return self.profiles[bisect_right(self.starts, state) - 1]

    def edge_record(self, src: int, sym_id: int, dst: int) -> tuple:
        """The guess record of a union edge: the move of the generator key
        of ``src`` on the symbol to the key of ``dst``, in the same member.
        Raises :class:`RuntimeError` unless exactly one record fits."""
        edge = (src, sym_id, dst)
        if edge not in self._records:
            keys, n, profile = self.keys, len(self.keys), self.profile_at(src)
            ours = 0 <= src < n and 0 <= dst < n and self.profile_at(dst) is profile
            moves = self._generators[profile].successors(keys[src]) if ours else ()
            found = {rec for sym, key, rec in moves if sym == sym_id and key == keys[dst]}
            if len(found) != 1:
                raise RuntimeError(f"union edge {edge} decodes to {len(found)} guess records")
            self._records[edge] = found.pop()
        return self._records[edge]

    def replay(self, word: FoldedWord, states: list[int]) -> tuple:
        """The profile, squares and powers of two of an accepting path of
        the union over a folded word, which stays inside one member.  Its
        guess records fill each summand's digit stream, and each stream
        unstacks into that summand's squares."""
        profile = self.profile_at(states[0])
        generator = self._generators[profile]
        i = word.pair_count
        digits = [[0] * (i + a) for a in generator.aligns]
        power_columns: list[int] = []
        # the word's i pair columns come first, then its tail singles
        for k, edge in enumerate(zip(states, word.ids, states[1:])):
            guesses, inj_lo, inj_hi = self._records.get(edge) or self.edge_record(*edge)
            if k < i:
                for stream, align, sites in zip(digits, generator.aligns, guesses):
                    for site, value in sites:
                        if site == "lo":
                            stream[k] = value
                        elif site == "hi":
                            stream[k - align] = value
                        else:
                            stream[i + k] = value
                power_columns += [k] * inj_lo + [i + k] * inj_hi
            else:
                power_columns += [k + i] * inj_lo
        squares = [
            int("".join(["1" if d > r else "0" for d in reversed(stream)]), 2)
            * ((1 << len(stream)) + 1)
            for s, stream in zip(generator.active, digits)
            for r in range(s.count)
        ]
        return profile, squares, [1 << c for c in power_columns]


@lru_cache(maxsize=None)
def family_runtime(name: str) -> FamilyRuntime:
    return FamilyRuntime(name)


def family_union(name: str) -> Nfa:
    return family_runtime(name).union


def machine_manifest(name: str) -> dict:
    members = family_members(name)
    combined = family_union(name)
    return {
        "family": name,
        "parity": members[0][0].parity,
        "members": [
            {
                "label": p.label,
                "carry": p.carry,
                "states": nfa.num_states,
                "transitions": nfa.num_transitions(),
            }
            for p, nfa in members
        ],
        "states": combined.num_states,
        "transitions": combined.num_transitions(),
    }


# -- enumeration helpers ---------------------------------------------------


def accept_set(nfa: Nfa, parity: str, source_length: int) -> set[int]:
    """All values of the given bit length whose folded word the machine
    accepts.  Steps the machine's bitset kernel through the word tree depth
    first, so prefixes share their work and the stack grows with the length
    alone."""
    i = pair_count(parity, source_length)
    if nfa.alphabet.symbols != alphabet_for(parity).symbols:
        raise ValueError(f"the machine does not read {parity} folds")
    letters = letter_ids(parity)
    # per word position, the value bits and letter id of each letter it may
    # hold; the leading 0f and 0i are no letters and label no word
    columns = [
        [((hi << i | lo) << k, letters[tag, (hi, lo)]) for hi in (0, 1) for lo in (0, 1)]
        for k, tag in enumerate(pair_tags(parity, i))
    ] + [
        [(bit << 2 * i + t, letters[tag, (bit,)]) for bit in (0, 1) if (tag, (bit,)) in letters]
        for t, tag in enumerate(SINGLE_TAGS[parity])
    ]
    kernel = compile_nfa(nfa)
    found: set[int] = set()
    stack = [(0, kernel.initial, 0)]
    while stack:
        k, mask, value = stack.pop()
        if k == len(columns):
            if mask & kernel.final:
                found.add(value)
            continue
        for bits, sym_id in columns[k]:
            after = kernel.step(mask, sym_id)
            if after:
                stack.append((k + 1, after, value | bits))
    return found
