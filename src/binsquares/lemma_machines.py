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
the position of each state's node is a state of that checker, so a machine's
language lies inside the checker's, and one machine covers every source
length at or above the minimum.  Fixed-length ones walk the loop-free chain
of one length, key on step indices and reach the short layouts the uniform
rules cannot express.

A move carries a guess record: per summand the digits guessed and their
sites ("lo", "hi", "top"), plus the powers of two injected.  Machines keep no
records: a runtime re-expands the source node of a path edge to decode it.

Generation computes the moves of a pair column once per summand shape.  The
guess combinations a column offers, with their digit sums, new slots and
output letters, depend on the position, the slots and the powers used so
far, never on the two carries or the seam carry.  So a shape's table
interns each (position, slots, used) as one node and expands it once, and
every member of the shape walks states (node, low carry, high carry) that
only add their carries to the sums.  A family walks each member once into
flat edge lists and predecessor lists, keeps the states that can still
reach acceptance, and writes only those straight into its union.

Each family's theorem is proved on its cover (``FAMILY_COVERS``), a
sub-list of its members whose union still accepts every word the syntax
checker accepts from the target's gate on.  A sub-union accepts some of
the family union's words, so that inclusion is a stronger lemma and the
theorem follows from it.  The covers were found greedily: starting from
the whole family, each member in turn, last first, was dropped, and the
drop kept while the inclusion still held.  So a cover is irreducible,
since dropping any one more member breaks the inclusion, but not
necessarily smallest.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import product as iproduct
from typing import NamedTuple

from .automata import (
    Nfa,
    PathKernel,
    co_reachable,
    quotient,
)
from .folding import (
    LOOP_MIN,
    SINGLE_TAGS,
    SPAN,
    FoldedWord,
    alphabet_for,
    fold_layout,
    pair_count,
    pair_letters,
    pair_tags,
)
from .proofcheck import check_forward

TOP_KINDS = ("exact", "free", "zero")


class Summand(namedtuple("Summand", "offset count top")):
    """A block of `count` equal-width squares, `offset` bits narrower than
    the source word (negative offsets mean wider).  `top` says what the
    stacked top digit must be: the full `count` for exact-width squares,
    anything for free halves, zero when the top column would fall outside
    the word."""

    __slots__ = ()

    def __new__(cls, offset: int, count: int, top: str = "exact") -> Summand:
        for name, value in (("offset", offset), ("count", count)):
            # a bool would pass for 0 or 1
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"summand {name} must be an int, not {type(value).__name__}")
        if count < 0:
            raise ValueError("summand count must be >= 0")
        if top not in TOP_KINDS:
            raise ValueError(f"top must be one of {TOP_KINDS}")
        return super().__new__(cls, offset, count, top)


class Profile(NamedTuple):
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


# the one accept state of a member, as a (node, c_lo, c_hi) state
_ACCEPT = (-1, 0, 0)


class _ShapeTable:
    """The interned nodes of one summand shape and their moves.

    A shape is a parity, its summands, a power budget and, for a fixed
    machine, a source length; the seam carry is left out, so every member
    that differs only in it shares the table.  A node is a (pos, slots,
    used) triple: pos is a position of the fold layout (a state of the
    minimal syntax checker, uniform, or a step index, fixed), slots holds
    per-summand bookkeeping and used counts placed power injections.
    """

    def __init__(
        self,
        parity: str,
        summands: tuple[Summand, ...],
        max_powers: int,
        source_length: int | None,
    ) -> None:
        if parity not in ("odd", "even"):
            raise ValueError("parity must be 'odd' or 'even'")
        # a bool would pass for 0 or 1, and a negative budget walks no node
        if not isinstance(max_powers, int) or isinstance(max_powers, bool) or max_powers < 0:
            raise ValueError(f"max_powers must be an int >= 0, not {max_powers!r}")
        self.parity = parity
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
        self.letters = alphabet_for(parity).ids
        self.pair_letters = pair_letters(parity)
        self.node_keys: list[tuple] = []
        self._node_ids: dict[tuple, int] = {}
        # move lists by node while members are walked, and the (moves,
        # records) by target node of each node an edge decode has expanded
        self._moves: dict[int, list] = {}
        self._decoded: dict[int, dict[int, tuple[list, list]]] = {}
        slots = tuple(((), ()) if a else () for a in self.aligns)
        self._node((0, slots, 0))

    def _node(self, key: tuple) -> int:
        node = self._node_ids.get(key)
        if node is None:
            node = self._node_ids[key] = len(self.node_keys)
            self.node_keys.append(key)
        return node

    def expand(self, node: int) -> tuple[list[tuple], list[tuple]]:
        """Every move of a node, with the guess record of each.

        A move is (low add, high add, target node, check, letters).  check is
        1 at the seam, where the low chain must produce the seam carry and
        restart from zero, and 2 on the last single, which must read a bare 1
        into the accept state.  letters holds the letter id of each (high
        bit, low bit) output, indexed by 2 * high + low."""
        pos, slots, used = self.node_keys[node]
        step = None if self.i is None else pos
        moves: list[tuple] = []
        records: list[tuple] = []
        for tag, nxt in self.layout[pos]:
            if tag in self.singles:
                self._single_moves(slots, used, self.singles.index(tag), nxt, moves, records)
                continue
            letters = self.pair_letters[tag]
            check = 1 if tag == "e" else 0
            for add_lo, add_hi, new_slots, used2, data in self._pair_moves(slots, tag, step, used):
                moves.append((add_lo, add_hi, self._node((nxt, new_slots, used2)), check, letters))
                records.append(data)
        return moves, records

    @staticmethod
    def landings(moves: list[tuple], state: tuple[int, int, int], carry: int) -> list:
        """Where each move takes a state in the member with this seam carry:
        (symbol id, successor state), or None when the carries rule the move
        out."""
        _, c_lo, c_hi = state
        out = []
        for add_lo, add_hi, target, check, letters in moves:
            total_lo, total_hi = add_lo + c_lo, add_hi + c_hi
            if not check:
                dst = (target, total_lo >> 1, total_hi >> 1)
            elif check == 1 and total_lo >> 1 == carry:
                dst = (target, 0, total_hi >> 1)
            elif check == 2 and total_hi == 1:
                dst = _ACCEPT
            else:
                out.append(None)
                continue
            out.append((letters[(total_hi & 1) << 1 | total_lo & 1], dst))
        return out

    def walk(
        self, carry: int
    ) -> tuple[list[list[tuple[int, int]]], list[list[int]], list[tuple], int | None]:
        """One member's reachable states, numbered in worklist order, in one
        pass over its edges: per id its (symbol id, successor id) pairs in
        landing order and the ids of its predecessors, one per edge, then the
        state of each id and the id of the accept state if a word reaches it.
        Distinct moves of a node land on distinct pairs, since the symbol
        and the successor's carries give back both adds, and identical
        moves count once, so no pair repeats."""
        if not isinstance(carry, int) or isinstance(carry, bool):
            raise ValueError(f"seam carry must be an int, not {type(carry).__name__}")
        if carry < 0:
            raise ValueError("seam carry must be >= 0")
        moves_of, expand, landings = self._moves, self.expand, self.landings
        states = [(0, 0, carry)]  # the low chain starts at zero
        ids = {states[0]: 0}
        edges: list[list[tuple[int, int]]] = [[]]
        preds: list[list[int]] = [[]]
        work = [0]
        while work:
            q = work.pop()
            state = states[q]
            node = state[0]
            if node < 0:
                continue  # the accept state has no moves
            moves = moves_of.get(node)
            if moves is None:
                moves = moves_of[node] = list(dict.fromkeys(expand(node)[0]))
            out = edges[q]
            for sym, dst in filter(None, landings(moves, state, carry)):
                d = ids.get(dst)
                if d is None:
                    d = ids[dst] = len(states)
                    states.append(dst)
                    edges.append([])
                    preds.append([q])
                    work.append(d)
                else:
                    preds[d].append(q)
                out.append((sym, d))
        return edges, preds, states, ids.get(_ACCEPT)

    def decode(self, src: tuple, sym_id: int, dst: tuple, carry: int) -> set[tuple]:
        """The guess records of the moves that take the state ``src`` over
        ``sym_id`` to the state ``dst`` in the member with this seam carry;
        the moves are those of the node of ``src`` into the node of ``dst``."""
        node = src[0]
        if node < 0:
            return set()  # the accept state has no moves
        by_target = self._decoded.get(node)
        if by_target is None:
            # the node's moves and records, grouped by target node once
            by_target = self._decoded[node] = {}
            for move, record in zip(*self.expand(node)):
                group = by_target.get(move[2])
                if group is None:
                    group = by_target[move[2]] = ([], [])
                group[0].append(move)
                group[1].append(record)
        moves, records = by_target.get(dst[0], ((), ()))
        landings = self.landings(moves, src, carry)
        return {rec for rec, landing in zip(records, landings) if landing == (sym_id, dst)}

    def drop_moves(self) -> None:
        """Drop the move lists the walks kept; decodes expand their own."""
        self._moves = {}

    # -- pair steps --------------------------------------------------------

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

    def _single_moves(
        self, slots: tuple, used: int, tau: int, next_pos: int, moves: list, records: list
    ) -> None:
        """One tail column: the high-track carry chains through, and the
        last column must produce a bare 1.  The seam restarted the low
        chain at zero, so a single reads its bit as the high one."""
        final = tau == len(self.singles) - 1
        tag = self.singles[tau]
        add = 0
        new_slots = []
        for a, slot in zip(self.aligns, slots):
            value, slot2 = self._single_value(a, slot, tau)
            add += value
            new_slots.append(slot2)
        no_guesses = tuple(() for _ in self.active)
        letters = (self.letters.get((tag, (0,))), None, self.letters[tag, (1,)], None)
        for used2, inj in self._single_injections(used):
            if final:
                moves.append((0, add + inj, _ACCEPT[0], 2, letters))
            else:
                target = self._node((next_pos, tuple(new_slots), used2))
                moves.append((0, add + inj, target, 0, letters))
            records.append((no_guesses, inj, 0))

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


def _row(pairs: list[tuple[int, int]], remap) -> dict[int, tuple[int, ...]]:
    """A row from a state's walk pairs: symbols in first-landing order, each
    with its successors' ids under ``remap`` in increasing order, where -1
    marks a dropped successor and a symbol left with none drops out."""
    row: dict[int, list[int]] = {}
    for sym, d in pairs:
        d = remap[d]
        if sym in row:
            if d >= 0:
                row[sym].append(d)
        else:
            row[sym] = [d] if d >= 0 else []
    return {sym: tuple(sorted(dsts)) for sym, dsts in row.items() if dsts}


def _walked_machine(table: _ShapeTable, carry: int) -> Nfa:
    """The member of a shape with this seam carry, dead states included."""
    edges, _, _, accept = table.walk(carry)
    identity = range(len(edges))
    return Nfa(
        alphabet=alphabet_for(table.parity),
        num_states=len(edges),
        initial=frozenset({0}),
        final=frozenset(() if accept is None else (accept,)),
        transitions=[_row(pairs, identity) for pairs in edges],
    )


def uniform_machine(
    parity: str,
    summands: tuple[Summand, ...],
    carry: int,
    max_powers: int = 0,
) -> Nfa:
    """Tag-keyed recognizer valid for every source length of the parity at
    or above the layout minimum (11 odd, 12 even)."""
    return _walked_machine(_ShapeTable(parity, summands, max_powers, None), carry)


def fixed_machine(
    parity: str,
    source_length: int,
    summands: tuple[Summand, ...],
    carry: int,
    max_powers: int = 0,
) -> Nfa:
    """Step-keyed recognizer for one source length, usable below the
    uniform layout minimum."""
    return _walked_machine(_ShapeTable(parity, summands, max_powers, source_length), carry)


# -- shipped machine families ---------------------------------------------


# Per family: parity, power budget, each summand offset (bits narrower than
# the source word) with its top kind, and per shape the label kind, the
# summand count at each offset and the seam carries whose member accepts a
# word; every other carry below the summand count (plus the power budget)
# makes a member that accepts none.  a-odd mixes widths n-1 and n-3 (A)
# with one width n-5 straggler (B); a-even mixes widths n down to n-6, at
# most one full-width; the square-power shapes are small square mixes with
# room for two powers of two; generalized has one free-half summand at each
# of three adjacent widths, and its labels name the carry alone.
_FAMILY_TABLE = {
    "a-odd": ("odd", 0, ((1, "exact"), (3, "exact"), (5, "exact")), (
        ("A", (1, 1), (1,)),
        ("A", (2, 1), (1, 2)),
        ("A", (1, 2), (1, 2)),
        ("B", (1, 1, 1), (1, 2)),
        ("A", (2, 2), (1, 2, 3)),
        ("B", (2, 1, 1), (1, 2, 3)),
    )),
    "a-even": ("even", 0, ((0, "exact"), (2, "exact"), (4, "exact"), (6, "exact")), (
        ("A", (0, 2, 2, 0), (2, 3)),
        ("A", (0, 3, 1, 0), (1, 2, 3)),
        ("A", (1, 0, 1, 1), (0, 1, 2)),
        ("A", (0, 2, 1, 1), (2, 3)),
    )),
    "square-power-odd": ("odd", 2, ((1, "exact"), (3, "exact")), (
        ("SP", (0, 0), (0,)),
        ("SP", (1, 0), (0, 1)),
        ("SP", (2, 0), (1, 2)),
        ("SP", (0, 1), (0, 1)),
        ("SP", (1, 1), (0, 1, 2)),
    )),
    "square-power-even": ("even", 2, ((0, "exact"), (2, "exact"), (4, "exact")), (
        ("SP", (0, 0, 0), (0,)),
        ("SP", (1, 0, 0), (0, 1)),
        ("SP", (0, 1, 0), (0, 1)),
        ("SP", (0, 0, 1), (0, 1)),
        ("SP", (1, 0, 1), (0, 1, 2)),
        ("SP", (0, 1, 1), (0, 1, 2)),
    )),
    "generalized-odd": ("odd", 0, ((-1, "zero"), (1, "free"), (3, "free")), (
        ("G", (1, 1, 1), (0, 1, 2)),
    )),
    "generalized-even": ("even", 0, ((0, "free"), (2, "free"), (4, "free")), (
        ("G", (1, 1, 1), (0, 1, 2)),
    )),
}

FAMILY_NAMES = tuple(_FAMILY_TABLE)


def family_profiles(name: str) -> tuple[Profile, ...]:
    """Profile list for a named family, in fixed order: shape by shape,
    carries ascending."""
    if name not in _FAMILY_TABLE:
        raise ValueError(f"unknown machine family {name!r}")
    parity, max_powers, widths, shapes = _FAMILY_TABLE[name]
    out = []
    for kind, counts, carries in shapes:
        summands = tuple(Summand(o, c, top) for (o, top), c in zip(widths, counts) if c)
        shown = () if kind == "G" else counts
        for m in carries:
            args = ",".join(map(str, shown + (m,)))
            out.append(Profile(parity, summands, m, max_powers, f"{kind}({args})"))
    return tuple(out)


# the members each family's theorem is proved on, in family order
FAMILY_COVERS = {
    "a-odd": (
        "A(1,1,1)", "A(2,1,1)", "A(2,1,2)", "A(1,2,1)", "A(1,2,2)", "B(1,1,1,1)",
        "B(1,1,1,2)", "A(2,2,2)", "B(2,1,1,1)", "B(2,1,1,2)", "B(2,1,1,3)",
    ),
    "a-even": (
        "A(0,2,2,0,2)", "A(0,2,2,0,3)", "A(0,3,1,0,1)", "A(1,0,1,1,0)",
        "A(1,0,1,1,1)", "A(1,0,1,1,2)", "A(0,2,1,1,2)", "A(0,2,1,1,3)",
    ),
    "square-power-odd": ("SP(2,0,1)", "SP(1,1,0)", "SP(1,1,1)", "SP(1,1,2)"),
    "square-power-even": (
        "SP(0,1,0,0)", "SP(1,0,1,0)", "SP(1,0,1,1)", "SP(0,1,1,1)", "SP(0,1,1,2)",
    ),
    "generalized-odd": ("G(0)", "G(1)"),
    "generalized-even": ("G(1)",),
}

# target -> (family, parity, gate): each target's theorem is proved on the
# family's cover, for every source length of the parity from the gate up,
# the shortest length the syntax checker admits
TARGETS = {
    "odd-squares": ("a-odd", "odd", 13),
    "even-squares": ("a-even", "even", 18),
    "square-power-odd": ("square-power-odd", "odd", 11),
    "square-power-even": ("square-power-even", "even", 12),
    "generalized-odd": ("generalized-odd", "odd", 11),
    "generalized-even": ("generalized-even", "even", 12),
}


def select_profiles(name: str, labels: tuple[str, ...]) -> tuple[Profile, ...]:
    """The profiles of a named family with these labels, in family order.
    Raises :class:`ValueError` for a label the family does not have, or for
    a bare string, which would read as its characters."""
    if isinstance(labels, str):
        raise ValueError(f"labels must be a collection of labels, not the string {labels!r}")
    profiles = family_profiles(name)
    unknown = set(labels) - {p.label for p in profiles}
    if unknown:
        raise ValueError(f"family {name!r} has no member {', '.join(sorted(unknown))}")
    return tuple(p for p in profiles if p.label in labels)


def _shape_tables(profiles: tuple[Profile, ...]) -> dict[Profile, _ShapeTable]:
    """One uniform table per summand shape, mapped from each profile that
    has the shape."""
    tables: dict[tuple, _ShapeTable] = {}
    for p in profiles:
        shape = (p.parity, p.summands, p.max_powers)
        if shape not in tables:
            tables[shape] = _ShapeTable(*shape, None)
    return {p: tables[p.parity, p.summands, p.max_powers] for p in profiles}


@lru_cache(maxsize=None)
def _above(r: int) -> bytes:
    """The translation of stacked digits 0 to 255 into the text bits of one
    square: "1" for a digit above r, else "0"."""
    return bytes.maketrans(bytes(range(256)), b"0" * (r + 1) + b"1" * (255 - r))


class FamilyRuntime:
    """Profiles of one parity, the disjoint union of their trimmed machines,
    the state where each member starts in it, the walk state (node, low
    carry, high carry) of each union state and, built on first use, the
    union's path kernel and its proof machine.  ``generated_states`` and
    ``generated_transitions`` total the members as generated, before their
    dead states are dropped, and ``generator_nodes`` counts the nodes their
    shape tables interned.  The profiles are a whole family
    (:func:`family_runtime`) or its cover (:func:`cover_runtime`); a tuple
    with no profile, or with both parities, raises :class:`ValueError`.

    Each member is walked once into flat (symbol, successor) lists, with
    the predecessors of every state recorded as its edges are found.  A
    backward search over those marks the live states, those that can still
    reach acceptance, and only they are written into the union, through a
    list from walk id to union id, so the union is trim as it stands and its
    states number the members one after another.  Only the union is kept:
    each member is the block of states from its start up to the next
    member's, and no edge leaves its block.
    """

    def __init__(self, profiles: tuple[Profile, ...]):
        if len({p.parity for p in profiles}) != 1:
            raise ValueError("a family runtime needs profiles of one parity")
        self.profiles = profiles
        self._tables = _shape_tables(self.profiles)
        rows: list[dict[int, tuple[int, ...]]] = []
        starts, states, initial, final = [], [], [], []
        self.generated_states = self.generated_transitions = 0
        for p in self.profiles:
            edges, preds, walked, accept = self._tables[p].walk(p.carry)
            self.generated_states += len(edges)
            self.generated_transitions += sum(map(len, edges))
            live = co_reachable(preds, () if accept is None else (accept,))
            offset = len(rows)
            # union id by walk id, -1 for a dead state
            remap = [-1] * len(edges)
            for new, q in enumerate(live, offset):
                remap[q] = new
            rows += [_row(edges[q], remap) for q in live]
            if live:
                initial.append(offset)
                final.append(remap[accept])
            starts.append(offset)
            states += [walked[q] for q in live]
            # free this member's walk before the next member's is built
            del edges, preds, walked
        self.generator_nodes = 0
        for table in set(self._tables.values()):
            table.drop_moves()
            self.generator_nodes += len(table.node_keys)
        self.starts = tuple(starts)
        self.union = Nfa(
            alphabet=alphabet_for(self.profiles[0].parity),
            num_states=len(rows),
            initial=frozenset(initial),
            final=frozenset(final),
            transitions=rows,
        )
        self.states = tuple(states)
        # guess records of the union edges decoded so far
        self._records: dict[tuple[int, int, int], tuple] = {}

    @cached_property
    def kernel(self) -> PathKernel:
        return PathKernel(self.union)

    @cached_property
    def proof_machine(self) -> Nfa:
        """The union's forward bisimulation quotient, which accepts the same
        words with fewer states, so inclusion on it decides the family's
        theorem.  It is re-checked by :mod:`proofcheck` first, which raises
        :class:`RuntimeError` if the collapse does not keep the language."""
        collapsed = quotient(self.union)
        check_forward(self.union, collapsed.machine, collapsed.forward)
        return collapsed.machine

    def profile_at(self, state: int) -> Profile:
        """The profile of the member that owns a state of the union."""
        return self.profiles[bisect_right(self.starts, state) - 1]

    def edge_record(self, src: int, sym_id: int, dst: int) -> tuple:
        """The guess record of a union edge: the move of the walk state of
        ``src`` on the symbol to the walk state of ``dst``, in the same
        member.  Raises :class:`RuntimeError` unless exactly one record
        fits."""
        edge = (src, sym_id, dst)
        if edge not in self._records:
            states, n, profile = self.states, len(self.states), self.profile_at(src)
            ours = 0 <= src < n and 0 <= dst < n and self.profile_at(dst) is profile
            decode = self._tables[profile].decode
            found = decode(states[src], sym_id, states[dst], profile.carry) if ours else set()
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
        table = self._tables[profile]
        i = word.pair_count
        records, edges = self._records, zip(states, word.ids, states[1:])
        # the word's i pair columns come first, then its tail singles
        path = [records.get(edge) or self.edge_record(*edge) for edge in edges]
        squares = []
        # per summand, its sites in each pair column
        columns = zip(*[guesses for guesses, _, _ in path[:i]])
        for s, align, column in zip(table.active, table.aligns, columns):
            stream = bytearray(i + align)
            for k, sites in enumerate(column):
                for site, value in sites:
                    if site == "lo":
                        stream[k] = value
                    elif site == "hi":
                        stream[k - align] = value
                    else:
                        stream[i + k] = value
            # most significant digit first; square r has a 1 where more
            # than r of the stacked squares do
            stream.reverse()
            factor = (1 << len(stream)) + 1
            squares += [int(stream.translate(_above(r)), 2) * factor for r in range(s.count)]
        power_columns: list[int] = []
        for k, (_, inj_lo, inj_hi) in enumerate(path):
            if inj_lo or inj_hi:
                if k < i:
                    power_columns += [k] * inj_lo + [i + k] * inj_hi
                else:
                    power_columns += [k + i] * inj_lo
        return profile, squares, [1 << c for c in power_columns]


@lru_cache(maxsize=None)
def family_runtime(name: str) -> FamilyRuntime:
    """The runtime of every member of a family, which no command builds:
    the commands run on the cover, and the library's :func:`family_union`
    is the whole family's one view."""
    return FamilyRuntime(family_profiles(name))


@lru_cache(maxsize=None)
def cover_runtime(name: str) -> FamilyRuntime:
    """The runtime of a family's cover members alone, which ``verify``
    proves on, ``decompose`` walks and ``export`` writes.  Their union
    accepts a subset of the family union's words, so an inclusion proved on
    it holds for the whole family."""
    return FamilyRuntime(select_profiles(name, FAMILY_COVERS.get(name, ())))


def family_union(name: str) -> Nfa:
    return family_runtime(name).union


# -- enumeration helpers ---------------------------------------------------


def accept_set(nfa: Nfa, parity: str, source_length: int) -> set[int]:
    """All values of the given bit length whose folded word the machine
    accepts.  Steps the machine's path kernel backward through the word
    tree depth first, from the final states over the last letter first, so
    suffixes share their work and the stack grows with the length alone.
    A value is kept when the states that accept its whole word hold an
    initial state.  Only states with a path to a final state are entered,
    so the search never walks the dead states of an untrimmed machine."""
    i = pair_count(parity, source_length)
    if nfa.alphabet.symbols != alphabet_for(parity).symbols:
        raise ValueError(f"the machine does not read {parity} folds")
    letters = alphabet_for(parity).ids
    # per word position, the value bits and letter id of each letter it may
    # hold; the leading 0f and 0i are no letters and label no word
    columns = [
        [((hi << i | lo) << k, letters[tag, (hi, lo)]) for hi in (0, 1) for lo in (0, 1)]
        for k, tag in enumerate(pair_tags(parity, i))
    ] + [
        [(bit << 2 * i + t, letters[tag, (bit,)]) for bit in (0, 1) if (tag, (bit,)) in letters]
        for t, tag in enumerate(SINGLE_TAGS[parity])
    ]
    kernel = PathKernel(nfa)
    found: set[int] = set()
    stack = [(len(columns), kernel.final, 0)]
    while stack:
        k, mask, value = stack.pop()
        if not k:
            if mask & kernel.initial:
                found.add(value)
            continue
        for bits, sym_id in columns[k - 1]:
            before = kernel.back(mask, sym_id)
            if before:
                stack.append((k - 1, before, value | bits))
    return found
