"""A small NFA engine over interned symbol alphabets.

Machines are immutable once built: states are dense ints, symbols are interned
to dense ids through an :class:`Alphabet`, and the transition table is a
per-state dict from symbol id to a tuple of successors.  There are no epsilon
moves.  Multiple initial states are allowed.

Two kernels step state sets as int bitsets, a chunk of states at a time
through lazily filled tables of successor masks.  Language inclusion
compiles the container into the row kernel, with 32-bit chunks, and runs a
lazy subset construction interleaved with the contained machine, pruned by
one antichain of subsets per contained state, indexed by the lowest and the
highest state of each subset.  It steps a subset on every symbol of the
contained state's row at once, through tables whose entries hold a chunk's
successors on all those symbols.  When inclusion fails it returns a
shortest counterexample, the shortlex-least one when the contained machine
is deterministic, so results are reproducible.
Accepting-path search runs a word through a :class:`PathKernel`, with
64-bit chunks, one state mask per position, and recovers the
lexicographically least run to the lowest reachable final state.
Accept-set enumeration in :mod:`lemma_machines` steps a path kernel
through every word of one length, depth first.  The path kernel is also a
lazily built subset automaton: it remembers each whole-mask step it takes,
since the same frontiers come back word after word.  The row kernel
remembers none, since its row steps do not repeat (see :class:`_RowKernel`).

:func:`quotient` merges the states of a machine by a forward bisimulation;
the result accepts the same words, and inclusion proofs run on it.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

# the array typecode of an unsigned 32-bit int; "Q" is one of 64 bits
_UINT32 = next(code for code in "IL" if array(code).itemsize == 4)
_BIG_ENDIAN = sys.byteorder == "big"
# Entries one of inclusion's (symbol tuple, chunk) row tables may hold; a
# full table is cleared before its next insertion.  Uncapped, the largest
# 32-bit-chunk row table of each of the six verify searches (odd-squares to
# generalized-even, in cli order) holds 61, 231, 54, 75, 14 and 24 entries,
# and those of the a-odd and a-even refutations at 11 and 16 bits 64 and
# 265; so only the a-even refutation reaches the cap, once, with the same
# result and counts as uncapped.  A cap of 64 makes the even-squares
# inclusion about 1.6 times as slow.
_TABLE_LIMIT = 256
# The same for a compiled path kernel's 64-bit-chunk tables, which see only
# the steps its memo misses.  They fill up 335 to 351 times in a perfbench
# certify pass on the cover unions (seeds 1 to 4).  Against 48 entries, 64
# ran that pass about as fast with 0.4 MB more peak memory, and 32 took
# 1.4 MB less but ran it 14 % slower (both measured on the whole families).
_PATH_TABLE_LIMIT = 48
# Whole-mask steps a compiled path kernel remembers, forward and backward
# together; a full memo is cleared before its next insertion.  A perfbench
# certify pass (a warm-up and three rounds of 24 decompositions of 64 to 4001
# bits) leaves at most 5 138, in square-power-even's cover kernel (seeds 1
# to 4).  An entry holds two masks of n bits, each about 28 + n / 7.5 bytes
# as a Python int, plus a dict slot of under 100 bytes, so a full memo of
# the largest union a decomposition walks (a-odd's cover, 2 748 states)
# takes at most about 7.3 MB.
_MEMO_LIMIT = 8192


@dataclass(frozen=True, order=True)
class Symbol:
    """One letter of a folded word: a tag plus one or two bits.

    Two bits make a fold pair (high half bit first), one bit a tail single.
    """

    tag: str
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) not in (1, 2) or any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"malformed symbol payload: {self.bits!r}")

    @property
    def is_pair(self) -> bool:
        return len(self.bits) == 2

    def render(self) -> str:
        if self.is_pair:
            return f"[{self.bits[0]},{self.bits[1]}]{self.tag}"
        return f"{self.bits[0]}{self.tag}"


class Alphabet:
    """Interned, ordered symbol set shared by the machines that speak it."""

    def __init__(self, symbols: Iterable[Symbol]):
        self.symbols: tuple[Symbol, ...] = tuple(sorted(set(symbols)))
        if not self.symbols:
            raise ValueError("alphabet cannot be empty")
        self._ids: dict[Symbol, int] = {s: i for i, s in enumerate(self.symbols)}

    def __len__(self) -> int:
        return len(self.symbols)

    def id_of(self, symbol: Symbol) -> int:
        try:
            return self._ids[symbol]
        except KeyError:
            raise KeyError(f"symbol {symbol.render()} not in alphabet") from None

    def decode(self, ids: Iterable[int]) -> tuple[Symbol, ...]:
        return tuple(self.symbols[i] for i in ids)


@dataclass
class Nfa:
    """Nondeterministic finite automaton with interned symbols.  An edge
    carries nothing but its symbol."""

    alphabet: Alphabet
    num_states: int
    initial: frozenset[int]
    final: frozenset[int]
    transitions: list[dict[int, tuple[int, ...]]]

    def __post_init__(self) -> None:
        if len(self.transitions) != self.num_states:
            raise ValueError("transition table size mismatch")
        for q in self.initial | self.final:
            if not 0 <= q < self.num_states:
                raise ValueError(f"state {q} out of range")

    def num_transitions(self) -> int:
        return sum(
            len(dsts) for row in self.transitions for dsts in row.values()
        )

    def successors(self, states: frozenset[int], sym_id: int) -> frozenset[int]:
        out: set[int] = set()
        for q in states:
            out.update(self.transitions[q].get(sym_id, ()))
        return frozenset(out)

    def accepts(self, word: Iterable[Symbol]) -> bool:
        frontier = self.initial
        for symbol in word:
            if not frontier:
                return False
            frontier = self.successors(frontier, self.alphabet.id_of(symbol))
        return bool(frontier & self.final)

    def walk(self) -> Iterator[tuple[int, int, int]]:
        for src, row in enumerate(self.transitions):
            for sym_id, dsts in row.items():
                for dst in dsts:
                    yield src, sym_id, dst


class NfaBuilder:
    """Accumulates states and edges, then freezes into an :class:`Nfa`.

    States are interned by an arbitrary hashable key, so generators can work
    with structured descriptions and never see raw ids.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._ids: dict[object, int] = {}
        self._edges: list[dict[int, set[int]]] = []
        self._initial: set[int] = set()
        self._final: set[int] = set()

    def state(self, key: object) -> int:
        q = self._ids.get(key)
        if q is None:
            q = self._ids[key] = len(self._edges)
            self._edges.append({})
        return q

    def mark_initial(self, key: object) -> None:
        self._initial.add(self.state(key))

    def mark_final(self, key: object) -> None:
        self._final.add(self.state(key))

    def add_edge(self, src: object, symbol: Symbol | int, dst: object) -> None:
        """Add the edge src -> dst on ``symbol``, a letter of the alphabet or
        its id, interning new state keys."""
        s, d = self.state(src), self.state(dst)
        sym_id = symbol if isinstance(symbol, int) else self.alphabet.id_of(symbol)
        self._edges[s].setdefault(sym_id, set()).add(d)

    def build(self) -> Nfa:
        n = len(self._ids)
        table: list[dict[int, tuple[int, ...]]] = [
            {sym: tuple(sorted(dsts)) for sym, dsts in self._edges[q].items()}
            for q in range(n)
        ]
        return Nfa(
            alphabet=self.alphabet,
            num_states=n,
            initial=frozenset(self._initial),
            final=frozenset(self._final),
            transitions=table,
        )


def restrict(nfa: Nfa, keep: list[int]) -> Nfa:
    """The machine on the states ``keep``, renumbered densely in the order
    given; edges to other states are dropped."""
    remap = {old: new for new, old in enumerate(keep)}
    table: list[dict[int, tuple[int, ...]]] = []
    for old in keep:
        row = {}
        for sym_id, dsts in nfa.transitions[old].items():
            kept = tuple(sorted(remap[d] for d in dsts if d in remap))
            if kept:
                row[sym_id] = kept
        table.append(row)
    return Nfa(
        alphabet=nfa.alphabet,
        num_states=len(keep),
        initial=frozenset(remap[q] for q in nfa.initial if q in remap),
        final=frozenset(remap[q] for q in nfa.final if q in remap),
        transitions=table,
    )


def live_states(nfa: Nfa) -> list[int]:
    """The states both reachable and co-reachable, in increasing order."""
    transitions = nfa.transitions
    forward: set[int] = set(nfa.initial)
    queue = deque(forward)
    while queue:
        q = queue.popleft()
        for dsts in transitions[q].values():
            for d in dsts:
                if d not in forward:
                    forward.add(d)
                    queue.append(d)
    # successors of reachable states are reachable, so the co-reachable
    # ones among them are found by walking back over their edges alone
    return co_reachable(transitions, forward.intersection(nfa.final), forward)


def co_reachable(
    transitions: Sequence[Mapping[int, Iterable[int]]],
    targets: Iterable[int],
    sources: Iterable[int] | None = None,
) -> list[int]:
    """The states with a path to one of ``targets``, in increasing order,
    walking back over the edges of ``sources`` (every state by default)."""
    reverse: list[list[int]] = [[] for _ in transitions]
    for src in range(len(transitions)) if sources is None else sources:
        for dsts in transitions[src].values():
            for d in dsts:
                reverse[d].append(src)
    backward = set(targets)
    stack = list(backward)
    while stack:
        for p in reverse[stack.pop()]:
            if p not in backward:
                backward.add(p)
                stack.append(p)
    return sorted(backward)


def trim(nfa: Nfa) -> Nfa:
    """Restrict to the live states, renumbered densely in their order."""
    return restrict(nfa, live_states(nfa))


class Quotient(NamedTuple):
    """Result of :func:`quotient`: ``machine`` is the forward quotient of the
    input, and ``forward`` maps each input state to its ``machine`` state."""

    machine: Nfa
    forward: tuple[int, ...]


def _refine(rows: Sequence[Mapping[int, Sequence[int]]], marked: frozenset[int]) -> list[int]:
    """The coarsest stable partition of the states that separates ``marked``
    from the rest: the states of a block have successors in the same blocks
    on every symbol, where ``rows[q]`` maps a symbol to q's successors.
    Blocks are numbered by first occurrence in state order.

    Signature refinement: a round splits each block it re-signs by its
    members' sets of successor blocks per symbol.  A split is sound whenever
    it happens, since states of one class have successors in the same
    blocks of any coarser partition.  A signature changes only when a
    successor changes block, so a round re-signs only the blocks holding a
    predecessor of a state that the last round moved.
    """
    items = [sorted(row.items()) for row in rows]
    predecessors: list[list[int]] = [[] for _ in rows]
    for q, row in enumerate(items):
        for _, dsts in row:
            for d in dsts:
                predecessors[d].append(q)
    block = [int(q in marked) for q in range(len(rows))]
    members = [[q for q, b in enumerate(block) if b == side] for side in (0, 1)]
    get = block.__getitem__
    dirty = set(block)
    while dirty:
        moved: list[int] = []
        for b in sorted(dirty):
            parts: dict[tuple, list[int]] = {}
            for q in members[b]:
                key = tuple([(sym, frozenset(map(get, dsts))) for sym, dsts in items[q]])
                parts.setdefault(key, []).append(q)
            members[b], *split = parts.values()
            for part in split:
                for q in part:
                    block[q] = len(members)
                members.append(part)
                moved += part
        dirty = {block[p] for q in moved for p in predecessors[q]}
    ids: dict[int, int] = {}
    return [ids.setdefault(b, len(ids)) for b in block]


def _reverse(rows: Sequence[Mapping[int, Sequence[int]]]) -> list[dict[int, list[int]]]:
    """Each state's predecessors per symbol, in state order.  The lists are
    returned as filled: a backward step ORs them into a mask, so neither
    their symbol order nor their type matters."""
    out: list[dict[int, list[int]]] = [{} for _ in rows]
    for src, row in enumerate(rows):
        for sym_id, dsts in row.items():
            for d in dsts:
                out[d].setdefault(sym_id, []).append(src)
    return out


def quotient(nfa: Nfa) -> Quotient:
    """Merge states by a forward bisimulation: states of the same finality
    whose successors fall in the same blocks on every symbol accept the same
    words, so the merged machine does too.  Each block's row is read off its
    first member, since the members agree on successor blocks.

    Merging states reached by the same words as well would not help
    inclusion: every subset its search reaches holds such states together,
    so the subsets and their order would stay as they were.
    """
    forward = _refine(nfa.transitions, nfa.final)
    first: dict[int, int] = {}
    for q, b in enumerate(forward):
        first.setdefault(b, q)
    machine = Nfa(
        alphabet=nfa.alphabet,
        num_states=len(first),
        initial=frozenset(forward[q] for q in nfa.initial),
        final=frozenset(forward[q] for q in nfa.final),
        transitions=[
            {
                sym: tuple(sorted({forward[d] for d in dsts}))
                for sym, dsts in sorted(nfa.transitions[q].items())
            }
            for q in first.values()
        ],
    )
    return Quotient(machine, tuple(forward))


@dataclass(frozen=True)
class InclusionResult:
    """Verdict of :func:`includes` plus counters of the work the search did.

    ``explored`` counts the (contained state, container subset) pairs stored,
    ``subset_steps`` the container subset successors computed,
    ``antichain_peak`` the most subsets kept for any one contained state,
    ``subset_popcount_mean`` the mean number of container states in the
    subsets kept (0.0 when none is kept), and ``table_entries`` the chunk
    table entries the search built.  A table that reaches its cap starts
    over and builds again, so ``table_entries`` follows the cap and takes
    no part in comparing results.
    """

    holds: bool
    counterexample: tuple[Symbol, ...] | None
    explored: int
    subset_steps: int
    antichain_peak: int
    subset_popcount_mean: float
    table_entries: int = field(compare=False)


def _cut(mask: int, typecode: str, num_bytes: int) -> array:
    """A mask as unsigned ints of the typecode filling ``num_bytes`` bytes,
    the chunk of the lowest states first."""
    chunks = array(typecode, mask.to_bytes(num_bytes, "little"))
    if _BIG_ENDIAN:
        chunks.byteswap()
    return chunks


class PathKernel:
    """A machine compiled to int bitsets for :func:`accepting_path` and for
    :func:`lemma_machines.accept_set`: bit q of a mask stands for state q.

    A step ORs the successor masks of the mask's states 64 states at a time,
    through one lookup table per (symbol, chunk).  Path search steps wide
    frontiers, hundreds of states, with few distinct patterns per 64-state
    chunk, so 64-bit chunks take far fewer lookups than narrower ones;
    accept sets step narrow masks, a median of two states, and still run
    faster with 64-bit chunks than with 32-bit ones.  An entry is built from
    the machine's successor tuples the first time its chunk pattern occurs,
    so compiling costs nothing up front and only patterns that occur take
    memory; a table that reaches ``_PATH_TABLE_LIMIT`` entries starts over,
    so a long-lived kernel's tables stay bounded.  A backward step works the
    same way on predecessor lists, built on the first backward step, so a
    kernel that only steps forward never pays for them.  Path search meets
    the same frontiers again and again, so every step goes through a memo
    first: one dict per symbol and direction maps a whole mask to its
    successor mask, so the kernel is also a lazily built subset automaton,
    and only a miss goes through the chunk tables.  ``memo_hits`` counts the
    steps the memo answered.  The memo starts over when it holds
    ``_MEMO_LIMIT`` entries over both directions.
    """

    def __init__(self, nfa: Nfa):
        self.transitions = nfa.transitions
        self._num_symbols = len(nfa.alphabet)
        self.initial = sum(1 << q for q in nfa.initial)
        self.final = sum(1 << q for q in nfa.final)
        self._chunks = (nfa.num_states + 63) // 64
        self._predecessors: list[dict[int, list[int]]] | None = None
        self._tables = self._empty_tables()
        self._back_tables: list[list[dict[int, int]]] = []
        # per symbol, the forward and then the backward steps remembered
        self._memo: list[dict[int, int]] = [{} for _ in range(2 * self._num_symbols)]
        self._memo_size = 0
        self.memo_hits = 0

    def _empty_tables(self) -> list[list[dict[int, int]]]:
        return [[{} for _ in range(self._chunks)] for _ in range(self._num_symbols)]

    def _apply(
        self,
        adjacency: Sequence[Mapping[int, Sequence[int]]],
        sym_id: int,
        tables: list[dict[int, int]],
        memo: dict[int, int],
        mask: int,
    ) -> int:
        limit = _PATH_TABLE_LIMIT
        out = 0
        for chunk, word in enumerate(_cut(mask, "Q", 8 * self._chunks)):
            if not word:
                continue
            table = tables[chunk]
            part = table.get(word)
            if part is None:
                part, base, rest = 0, 64 * chunk, word
                while rest:
                    low = rest & -rest
                    for d in adjacency[base + low.bit_length() - 1].get(sym_id, ()):
                        part |= 1 << d
                    rest ^= low
                if len(table) >= limit:
                    table.clear()
                table[word] = part
            out |= part
        if self._memo_size >= _MEMO_LIMIT:
            for remembered in self._memo:
                remembered.clear()
            self._memo_size = 0
        memo[mask] = out
        self._memo_size += 1
        return out

    def step(self, mask: int, sym_id: int) -> int:
        """The states some state of ``mask`` reaches on the symbol."""
        memo = self._memo[sym_id]
        out = memo.get(mask)
        if out is not None:
            self.memo_hits += 1
            return out
        return self._apply(self.transitions, sym_id, self._tables[sym_id], memo, mask)

    def back(self, mask: int, sym_id: int) -> int:
        """The states that reach some state of ``mask`` on the symbol."""
        if self._predecessors is None:
            self._predecessors = _reverse(self.transitions)
            self._back_tables = self._empty_tables()
        memo = self._memo[self._num_symbols + sym_id]
        out = memo.get(mask)
        if out is not None:
            self.memo_hits += 1
            return out
        return self._apply(self._predecessors, sym_id, self._back_tables[sym_id], memo, mask)


class _RowKernel:
    """A machine compiled to int bitsets for :func:`includes`, which steps a
    subset on a whole tuple of symbols at once.

    A row step cuts the mask once into 32-state chunks and looks each chunk
    up once, in one table per (symbol tuple, chunk) whose entries hold the
    chunk's successor mask on every symbol of the tuple.  An entry is built
    the first time its chunk pattern occurs, and a table that reaches
    ``_TABLE_LIMIT`` entries starts over.  ``steps`` counts the subset
    successors computed and ``row_entries`` the table entries built.

    Inclusion's many small subsets fill wider tables with patterns seen
    once, and narrower ones cost more lookups per step.  Its row steps do
    not repeat: none of the 9 073 row steps (57 799 subset successors) of
    the six family proofs and two refutations steps a subset it stepped
    before on the same symbol tuple, so a memo would only hold entries that
    are never read.
    """

    def __init__(self, nfa: Nfa):
        self.transitions = nfa.transitions
        self._chunks = (nfa.num_states + 31) // 32
        # per symbol tuple, one table per chunk of per-symbol successor masks
        self._tables: dict[tuple[int, ...], list[dict[int, tuple[int, ...]]]] = {}
        self.steps = 0
        self.row_entries = 0

    def step_row(self, mask: int, sym_ids: tuple[int, ...]) -> list[int]:
        """The states some state of ``mask`` reaches on each of the symbols,
        one mask per symbol in the order given."""
        self.steps += len(sym_ids)
        tables = self._tables.get(sym_ids)
        if tables is None:
            tables = self._tables[sym_ids] = [{} for _ in range(self._chunks)]
        limit, adjacency = _TABLE_LIMIT, self.transitions
        found = []
        for chunk, word in enumerate(_cut(mask, _UINT32, 4 * self._chunks)):
            if not word:
                continue
            table = tables[chunk]
            parts = table.get(word)
            if parts is None:
                rows, base, rest = [], 32 * chunk, word
                while rest:
                    low = rest & -rest
                    rows.append(adjacency[base + low.bit_length() - 1])
                    rest ^= low
                built = []
                for sym_id in sym_ids:
                    part = 0
                    for row in rows:
                        for d in row.get(sym_id, ()):
                            part |= 1 << d
                    built.append(part)
                if len(table) >= limit:
                    table.clear()
                table[word] = parts = tuple(built)
                self.row_entries += 1
            found.append(parts)
        if not found:
            return [0] * len(sym_ids)
        return [reduce(or_, column) for column in zip(*found)]


class AcceptingPath(NamedTuple):
    """Result of :func:`accepting_path`.

    ``states`` is the state sequence of the path, one more than the symbols,
    or None when the word is rejected; ``visited`` sums the sizes of the
    forward layers and ``frontier_max`` is the largest of them.
    ``memo_hits`` counts the forward and backward steps the kernel's memo
    answered, which depends on what the kernel stepped before.
    """

    states: list[int] | None
    visited: int
    frontier_max: int
    memo_hits: int


def accepting_path(compiled: PathKernel, symbol_ids: Sequence[int]) -> AcceptingPath:
    """An accepting run of a compiled machine over a word of symbol ids.

    The forward pass keeps one mask per layer, the states reachable after
    each prefix.  With f the lowest final state of the last layer, a
    backward pass intersects each layer with the states that reach f on the
    rest of the word, and a greedy walk then takes the lowest such state at
    every step, the first one in the current state's successor tuple, which
    every builder of this module and the family runtimes write in
    increasing order.  The result is the lexicographically least state
    sequence from an initial state to f, the run that breadth-first
    simulation with first-found parent pointers also picks.
    """
    hits = compiled.memo_hits
    layers = [compiled.initial]
    for sym_id in symbol_ids:
        if not layers[-1]:
            break
        layers.append(compiled.step(layers[-1], sym_id))
    sizes = [layer.bit_count() for layer in layers]
    visited, widest = sum(sizes), max(sizes)
    accepted = layers[-1] & compiled.final  # an early stop leaves an empty layer
    if not accepted:
        return AcceptingPath(None, visited, widest, compiled.memo_hits - hits)
    alive = [0] * len(layers)
    alive[-1] = accepted & -accepted
    for k in range(len(symbol_ids) - 1, -1, -1):
        alive[k] = layers[k] & compiled.back(alive[k + 1], symbol_ids[k])
    transitions = compiled.transitions
    state = (alive[0] & -alive[0]).bit_length() - 1
    states = [state]
    for sym_id, live in zip(symbol_ids, alive[1:]):
        # an alive state always has an alive successor, so the loop breaks
        for state in transitions[state][sym_id]:
            if live >> state & 1:
                break
        states.append(state)
    return AcceptingPath(states, visited, widest, compiled.memo_hits - hits)


_Antichain = dict[int, dict[int, list[int]]]


def _keep(kept: _Antichain, mask: int) -> None:
    """File a mask under its lowest and then its highest set bit, each as a
    one-bit int; the empty mask has neither and sits under (0, 0)."""
    high = mask and 1 << mask.bit_length() - 1
    kept.setdefault(mask & -mask, {}).setdefault(high, []).append(mask)


def _subsumed(kept: _Antichain, outside: int) -> bool:
    """Whether some kept mask has no bit in ``outside``, the complement of the
    candidate mask within the container's states.

    A kept mask is a subset of the candidate only if both its lowest and its
    highest bit lie in the candidate, so a bucket keyed by a bit outside the
    candidate is skipped whole.  The empty mask's keys are 0, which no
    candidate skips, since it is a subset of every mask.
    """
    for low, by_high in kept.items():
        if not outside & low:
            for high, masks in by_high.items():
                if not outside & high:
                    for k in masks:
                        if not k & outside:
                            return True
    return False


def includes(container: Nfa, contained: Nfa) -> InclusionResult:
    """Decide L(contained) <= L(container).

    The container is compiled once per call into the row kernel, so a
    subset of its states is a plain int mask.  The search explores pairs
    (state of contained, container subset) breadth-first from the initial
    pairs.  It steps a pair's subset on all the symbols of its contained
    state's row at once, and expands them in sorted order.  A pair whose
    contained state is final while its subset holds no final container state
    ends the search, and the counterexample is rebuilt from stored parents.
    A pair is pruned when an already stored pair of the same contained state
    has a subset of its subset (De Wulf et al., CAV 2006).

    The counterexample is always a shortest word of L(contained) minus
    L(container).  When the contained machine is deterministic, as the syntax
    checkers are, it is also the shortlex-least such word in symbol order.
    With a nondeterministic contained machine it need not be shortlex-least:
    breadth-first order follows pairs, not words.
    """
    if container.alphabet.symbols != contained.alphabet.symbols:
        raise ValueError("inclusion requires a common alphabet")
    kernel = _RowKernel(container)
    everything = (1 << container.num_states) - 1
    start = sum(1 << q for q in container.initial)
    final = sum(1 << q for q in container.final)
    visited: dict[tuple[int, int], tuple | None] = {}
    kept: dict[int, _Antichain] = {}
    queue: deque[tuple[int, int]] = deque()

    def result(bad: tuple[int, int] | None) -> InclusionResult:
        counterexample = None
        if bad is not None:
            word: list[int] = []
            node = bad
            while visited[node] is not None:
                node, sym_id = visited[node]
                word.append(sym_id)
            counterexample = container.alphabet.decode(reversed(word))
        chains = [
            [k for by_high in index.values() for masks in by_high.values() for k in masks]
            for index in kept.values()
        ]
        stored = sum(map(len, chains))
        return InclusionResult(
            holds=bad is None,
            counterexample=counterexample,
            explored=len(visited),
            subset_steps=kernel.steps,
            antichain_peak=max(map(len, chains), default=0),
            subset_popcount_mean=(
                sum(k.bit_count() for chain in chains for k in chain) / stored
                if stored
                else 0.0
            ),
            table_entries=kernel.row_entries,
        )

    def store(node: tuple[int, int], parent: tuple | None) -> bool:
        """Record a new pair; True when it witnesses a counterexample."""
        state, mask = node
        visited[node] = parent
        if state in contained.final and not mask & final:
            return True
        _keep(kept.setdefault(state, {}), mask)
        queue.append(node)
        return False

    for qb in sorted(contained.initial):
        node = (qb, start)
        if node not in visited and store(node, None):
            return result(node)

    # per contained state, its row's symbols in sorted order and their targets
    rows = []
    for row in contained.transitions:
        sym_ids = tuple(sorted(row))
        rows.append((sym_ids, [row[sym_id] for sym_id in sym_ids]))
    while queue:
        qb, mask = queue.popleft()
        sym_ids, targets = rows[qb]
        for sym_id, dsts, nmask in zip(sym_ids, targets, kernel.step_row(mask, sym_ids)):
            for db in dsts:
                node = (db, nmask)
                if node in visited:
                    continue
                if _subsumed(kept.get(db, {}), everything ^ nmask):
                    continue
                if store(node, ((qb, mask), sym_id)):
                    return result(node)
    return result(None)


def to_dot(nfa: Nfa, name: str = "machine") -> str:
    """Graphviz rendering; initial states get arrows from point nodes."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  node [shape=circle];']
    for q in sorted(nfa.final):
        lines.append(f'  q{q} [shape=doublecircle];')
    for i, q in enumerate(sorted(nfa.initial)):
        lines.append(f'  start{i} [shape=point];')
        lines.append(f"  start{i} -> q{q};")
    grouped: dict[tuple[int, int], list[str]] = {}
    for src, sym_id, dst in nfa.walk():
        grouped.setdefault((src, dst), []).append(
            nfa.alphabet.symbols[sym_id].render()
        )
    for (src, dst), labels in sorted(grouped.items()):
        text = ", ".join(sorted(labels))
        lines.append(f'  q{src} -> q{dst} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_automata_script(nfa: Nfa, name: str = "machine") -> str:
    """NestedWordAutomaton text block (internal transitions only)."""

    def sym_name(symbol: Symbol) -> str:
        return f'"{symbol.render()}"'

    used = sorted({sym_id for _, sym_id, _ in nfa.walk()})
    letters = ", ".join(sym_name(nfa.alphabet.symbols[i]) for i in used)
    states = " ".join(f'"q{q}"' for q in range(nfa.num_states))
    initial = " ".join(f'"q{q}"' for q in sorted(nfa.initial))
    final = " ".join(f'"q{q}"' for q in sorted(nfa.final))
    edges = "\n".join(
        f'    ("q{src}" {sym_name(nfa.alphabet.symbols[sym_id])} "q{dst}")'
        for src, sym_id, dst in sorted(nfa.walk())
    )
    return (
        f"NestedWordAutomaton {name} = (\n"
        "  callAlphabet = { },\n"
        f"  internalAlphabet = {{ {letters} }},\n"
        "  returnAlphabet = { },\n"
        f"  states = {{ {states} }},\n"
        f"  initialStates = {{ {initial} }},\n"
        f"  finalStates = {{ {final} }},\n"
        "  callTransitions = { },\n"
        f"  internalTransitions = {{\n{edges}\n  }},\n"
        "  returnTransitions = { }\n"
        ");\n"
    )
