"""A small NFA engine over interned symbol alphabets.

Machines are immutable once built: states are dense ints, symbols are interned
to dense ids through an :class:`Alphabet`, and the transition table is a
per-state dict from symbol id to a tuple of successors.  There are no epsilon
moves.  Multiple initial states are allowed.

One compiled form serves three walks: state sets as int bitsets,
stepped a chunk of states at a time through lazily filled per-symbol tables
of successor masks.  Language inclusion compiles the container into it with
32-bit chunks and runs a lazy subset construction interleaved with the
contained machine, pruned by one antichain of subsets per contained state,
indexed by the lowest and the highest state of each subset.  When inclusion
fails it returns a shortest counterexample, the shortlex-least one when the
contained machine is deterministic, so results are reproducible.
Accepting-path search runs a word through a compiled machine one state mask
per position and recovers the lexicographically least run to the lowest
reachable final state.  Accept-set enumeration in :mod:`lemma_machines`
steps a compiled machine through every word of one length, depth first.
The compiled machine of these two walks is also a lazily built subset
automaton: it remembers each whole-mask step it takes, since the same
frontiers come back word after word.  Inclusion's kernel remembers none,
since its steps do not repeat (see :func:`compile_nfa`).

:func:`quotient` merges the states of a machine by a forward and then a
backward bisimulation; the result accepts the same words, and inclusion
proofs run on it.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

# array typecodes of unsigned ints of 32 and 64 bits, in native byte order
_CHUNK_TYPECODES = {
    32: next(code for code in "IL" if array(code).itemsize == 4),
    64: "Q",
}
_BIG_ENDIAN = sys.byteorder == "big"
# Entries one (symbol, chunk) lookup table may hold; a full table is cleared
# before its next insertion.  Inclusion's 32-bit-chunk tables fill up 24 times
# in the even-squares verify, 4 times in the square-power-even one and 12
# times in the a-even refutation at 16 bits, with the same result and counts
# as uncapped tables; a cap of 64 makes the even-squares inclusion about
# twice as slow.
_TABLE_LIMIT = 256
# The same for a compiled path kernel's 64-bit-chunk tables, which see only
# the steps its memo misses.  They fill up 480 times in a perfbench certify
# pass.  Against 48 entries, 64 ran that pass about as fast with 0.4 MB more
# peak memory, and 32 took 1.4 MB less but ran it 14 % slower.
_PATH_TABLE_LIMIT = 48
# Whole-mask steps a compiled path kernel remembers, forward and backward
# together; a full memo is cleared before its next insertion.  A perfbench
# certify pass (a warm-up and three rounds of 24 decompositions of 64 to 4001
# bits) leaves at most 5 160, in square-power-even's kernel.  An entry holds
# two masks of n bits, each about 28 + n / 7.5 bytes as a Python int, plus a
# dict slot of under 100 bytes, so a full memo of the largest union (a-odd,
# 2 856 states) takes at most about 7.5 MB.
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

    def __contains__(self, symbol: Symbol) -> bool:
        return symbol in self._ids

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
        # the last source key and its id: a generator adds a state's edges
        # one after another, so its key is interned once, not once per edge
        self._src: tuple[object, int] = (object(), -1)

    def state(self, key: object) -> int:
        q = self._ids.get(key)
        if q is None:
            q = self._ids[key] = len(self._edges)
            self._edges.append({})
        return q

    def known(self, key: object) -> bool:
        return key in self._ids

    def mark_initial(self, key: object) -> None:
        self._initial.add(self.state(key))

    def mark_final(self, key: object) -> None:
        self._final.add(self.state(key))

    def add_edge(self, src: object, symbol: Symbol | int, dst: object) -> None:
        """Add the edge src -> dst on ``symbol``, a letter of the alphabet or
        its id, interning new state keys."""
        last, s = self._src
        if src is not last:
            s = self.state(src)
            self._src = (src, s)
        d = self._ids.get(dst)
        if d is None:
            d = self.state(dst)
        sym_id = symbol if isinstance(symbol, int) else self.alphabet.id_of(symbol)
        row = self._edges[s]
        dsts = row.get(sym_id)
        if dsts is None:
            row[sym_id] = {d}
        else:
            dsts.add(d)

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


def _renumber(nfa: Nfa, keep: list[int]) -> Nfa:
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
    return _renumber(nfa, live_states(nfa))


def union(machines: list[Nfa]) -> Nfa:
    """Disjoint union; all machines must share one alphabet object."""
    if not machines:
        raise ValueError("union of no machines")
    alphabet = machines[0].alphabet
    for m in machines[1:]:
        if m.alphabet is not alphabet and m.alphabet.symbols != alphabet.symbols:
            raise ValueError("union requires a common alphabet")
    table: list[dict[int, tuple[int, ...]]] = []
    initial: set[int] = set()
    final: set[int] = set()
    offset = 0
    for m in machines:
        for row in m.transitions:
            table.append(
                {sym: tuple(d + offset for d in dsts) for sym, dsts in row.items()}
            )
        initial.update(q + offset for q in m.initial)
        final.update(q + offset for q in m.final)
        offset += m.num_states
    return Nfa(
        alphabet=alphabet,
        num_states=offset,
        initial=frozenset(initial),
        final=frozenset(final),
        transitions=table,
    )


class Quotient(NamedTuple):
    """Result of :func:`quotient`: ``middle`` is the forward quotient of the
    input and ``machine`` the backward quotient of ``middle``.  ``forward``
    maps each input state to its ``middle`` state, ``backward`` each
    ``middle`` state to its ``machine`` state."""

    machine: Nfa
    middle: Nfa
    forward: tuple[int, ...]
    backward: tuple[int, ...]


def _refine(rows: Sequence[Mapping[int, Sequence[int]]], marked: frozenset[int]) -> list[int]:
    """The coarsest stable partition of the states that separates ``marked``
    from the rest: the states of a block have neighbours in the same blocks
    on every symbol, where ``rows[q]`` maps a symbol to q's neighbours.
    Blocks are numbered by first occurrence in state order.

    Signature refinement: a round splits each block it re-signs by its
    members' sets of neighbour blocks per symbol.  A split is sound whenever
    it happens, since states of one class have neighbours in the same
    blocks of any coarser partition.  A signature changes only when a
    neighbour changes block, so a round re-signs only the blocks holding a
    predecessor of a state that the last round moved.
    """
    items = [sorted(row.items()) for row in rows]
    predecessors: list[list[int]] = [[] for _ in rows]
    for q, row in enumerate(items):
        for _, nbrs in row:
            for d in nbrs:
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
                key = tuple([(sym, frozenset(map(get, nbrs))) for sym, nbrs in items[q]])
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


def _collapse(
    rows: Sequence[Mapping[int, Sequence[int]]], block: list[int]
) -> list[dict[int, tuple[int, ...]]]:
    """The rows of the machine on the blocks of a stable partition, read off
    each block's first member, since the members agree on neighbour blocks."""
    first: dict[int, int] = {}
    for q, b in enumerate(block):
        first.setdefault(b, q)
    return [
        {sym: tuple(sorted({block[d] for d in nbrs})) for sym, nbrs in sorted(rows[q].items())}
        for q in first.values()
    ]


def _reverse(rows: Sequence[Mapping[int, Sequence[int]]]) -> list[dict[int, tuple[int, ...]]]:
    """Each state's predecessors per symbol, in state order."""
    out: list[dict[int, list[int]]] = [{} for _ in rows]
    for src, row in enumerate(rows):
        for sym_id, dsts in row.items():
            for d in dsts:
                out[d].setdefault(sym_id, []).append(src)
    return [{sym: tuple(srcs) for sym, srcs in sorted(row.items())} for row in out]


def quotient(nfa: Nfa) -> Quotient:
    """Merge states by a forward and then a backward bisimulation.

    The forward stage merges states of the same finality whose successors
    fall in the same blocks on every symbol, so merged states accept the
    same words.  The backward stage does the mirror on the result, over
    predecessors and initiality, so merged states are reached by the same
    words.  Each stage keeps the language, and the second often merges
    states the first could not.
    """
    forward = _refine(nfa.transitions, nfa.final)
    middle = Nfa(
        alphabet=nfa.alphabet,
        num_states=len(set(forward)),
        initial=frozenset(forward[q] for q in nfa.initial),
        final=frozenset(forward[q] for q in nfa.final),
        transitions=_collapse(nfa.transitions, forward),
    )
    predecessors = _reverse(middle.transitions)
    backward = _refine(predecessors, middle.initial)
    machine = Nfa(
        alphabet=nfa.alphabet,
        num_states=len(set(backward)),
        initial=frozenset(backward[q] for q in middle.initial),
        final=frozenset(backward[q] for q in middle.final),
        transitions=_reverse(_collapse(predecessors, backward)),
    )
    return Quotient(machine, middle, tuple(forward), tuple(backward))


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Reachable product construction."""
    if a.alphabet.symbols != b.alphabet.symbols:
        raise ValueError("intersection requires a common alphabet")
    builder = NfaBuilder(a.alphabet)
    queue: deque[tuple[int, int]] = deque()
    for qa in sorted(a.initial):
        for qb in sorted(b.initial):
            key = (qa, qb)
            if not builder.known(key):
                builder.mark_initial(key)
                queue.append(key)
    seen = set(queue)
    while queue:
        qa, qb = queue.popleft()
        if qa in a.final and qb in b.final:
            builder.mark_final((qa, qb))
        row_a, row_b = a.transitions[qa], b.transitions[qb]
        for sym_id in row_a.keys() & row_b.keys():
            for da in row_a[sym_id]:
                for db in row_b[sym_id]:
                    key = (da, db)
                    builder.add_edge((qa, qb), sym_id, key)
                    if key not in seen:
                        seen.add(key)
                        queue.append(key)
    return builder.build()


def is_empty(nfa: Nfa) -> tuple[Symbol, ...] | None:
    """Shortest accepted word (ties broken by symbol order), or None if empty."""
    if not nfa.initial:
        return None
    start = frozenset(nfa.initial)
    if start & nfa.final:
        return ()
    parents: dict[frozenset[int], tuple[frozenset[int], int]] = {start: None}
    queue = deque([start])
    while queue:
        states = queue.popleft()
        for sym_id in range(len(nfa.alphabet)):
            nxt = nfa.successors(states, sym_id)
            if not nxt or nxt in parents:
                continue
            parents[nxt] = (states, sym_id)
            if nxt & nfa.final:
                word: list[int] = []
                cur = nxt
                while parents[cur] is not None:
                    cur, sym = parents[cur]
                    word.append(sym)
                return nfa.alphabet.decode(reversed(word))
            queue.append(nxt)
    return None


@dataclass(frozen=True)
class InclusionResult:
    """Verdict of :func:`includes` plus counters of the work the search did.

    ``explored`` counts the (contained state, container subset) pairs stored,
    ``subset_steps`` the container subset successors computed,
    ``antichain_peak`` the most subsets kept for any one contained state, and
    ``subset_popcount_mean`` the mean number of container states in the
    subsets kept (0.0 when none is kept).
    """

    holds: bool
    counterexample: tuple[Symbol, ...] | None
    explored: int
    subset_steps: int
    antichain_peak: int
    subset_popcount_mean: float


class _BitsetStepper:
    """A machine compiled to int bitsets: bit q of a mask stands for state q.

    A subset step ORs the successor masks of the subset's states a chunk of
    ``chunk_bits`` states at a time, through one lookup table per (symbol,
    chunk).  An entry is built from the machine's successor tuples the first
    time its chunk pattern occurs, so compiling costs nothing up front and
    only patterns that occur take memory; a table that reaches
    ``table_limit`` entries starts over, so a long-lived machine's tables
    stay bounded.  A backward step works the same way on predecessor lists,
    built on the first backward step, so a machine that only steps forward
    never pays for them.

    With a nonzero ``memo_limit`` the stepper is also a lazily built subset
    automaton: one dict per symbol and direction maps a whole mask to its
    successor mask, and only a miss goes through the chunk tables.
    ``memo_hits`` counts the steps the memo answered.  The memo starts over
    when it holds ``memo_limit`` entries over both directions.
    """

    def __init__(self, nfa: Nfa, chunk_bits: int, table_limit: int, memo_limit: int):
        self.transitions = nfa.transitions
        self._num_symbols = len(nfa.alphabet)
        self.initial = sum(1 << q for q in nfa.initial)
        self.final = sum(1 << q for q in nfa.final)
        self._chunk_bits = chunk_bits
        self._typecode = _CHUNK_TYPECODES[chunk_bits]
        self._chunks = (nfa.num_states + chunk_bits - 1) // chunk_bits
        self._num_bytes = self._chunks * chunk_bits // 8
        self._table_limit = table_limit
        self._tables = self._empty_tables()
        self._predecessors: list[dict[int, tuple[int, ...]]] | None = None
        self._back_tables: list[list[dict[int, int]]] = []
        self._memo_limit = memo_limit
        self._memo_size = 0
        # per symbol, the forward and then the backward steps remembered
        self._memo: list[dict[int, int] | None] = [
            {} if memo_limit else None for _ in range(2 * self._num_symbols)
        ]
        self.steps = 0
        self.memo_hits = 0

    def _empty_tables(self) -> list[list[dict[int, int]]]:
        return [[{} for _ in range(self._chunks)] for _ in range(self._num_symbols)]

    def _apply(
        self,
        adjacency: Sequence[Mapping[int, Sequence[int]]],
        sym_id: int,
        tables: list[dict[int, int]],
        memo: dict[int, int] | None,
        mask: int,
    ) -> int:
        width, limit = self._chunk_bits, self._table_limit
        chunks = array(self._typecode, mask.to_bytes(self._num_bytes, "little"))
        if _BIG_ENDIAN:
            chunks.byteswap()
        out = 0
        for chunk, word in enumerate(chunks):
            if not word:
                continue
            table = tables[chunk]
            part = table.get(word)
            if part is None:
                part, base, rest = 0, width * chunk, word
                while rest:
                    low = rest & -rest
                    for d in adjacency[base + low.bit_length() - 1].get(sym_id, ()):
                        part |= 1 << d
                    rest ^= low
                if len(table) >= limit:
                    table.clear()
                table[word] = part
            out |= part
        if memo is not None:
            if self._memo_size >= self._memo_limit:
                for remembered in self._memo:
                    remembered.clear()
                self._memo_size = 0
            memo[mask] = out
            self._memo_size += 1
        return out

    def step(self, mask: int, sym_id: int) -> int:
        """The states some state of ``mask`` reaches on the symbol."""
        self.steps += 1
        memo = self._memo[sym_id]
        out = memo.get(mask) if memo is not None else None
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
        out = memo.get(mask) if memo is not None else None
        if out is not None:
            self.memo_hits += 1
            return out
        return self._apply(self._predecessors, sym_id, self._back_tables[sym_id], memo, mask)


def compile_nfa(nfa: Nfa) -> _BitsetStepper:
    """Compile a machine for :func:`accepting_path` and for
    :func:`lemma_machines.accept_set`.

    Path search steps wide frontiers, hundreds of states, with few distinct
    patterns per 64-state chunk, so 64-bit chunks take far fewer lookups
    than narrower ones.  Accept sets step narrow masks, a median of two
    states, and still run faster with 64-bit chunks than with 32-bit ones.
    Path search meets the same frontiers again and again, so a path kernel
    remembers whole-mask steps (up to ``_MEMO_LIMIT``), and its chunk
    tables, which see only the memo's misses, hold at most
    ``_PATH_TABLE_LIMIT`` entries each.

    :func:`includes` compiles with 32-bit chunks and no memo: its many small
    subsets fill wider tables with patterns seen once, and narrower ones
    cost more lookups per step.  Its steps do not repeat: none of the
    57 799 steps of the six family proofs and two refutations steps a
    subset it stepped before on the same symbol, so a memo would only hold
    entries that are never read.
    """
    return _BitsetStepper(nfa, 64, _PATH_TABLE_LIMIT, _MEMO_LIMIT)


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


def accepting_path(compiled: _BitsetStepper, symbol_ids: Sequence[int]) -> AcceptingPath:
    """An accepting run of a compiled machine over a word of symbol ids.

    The forward pass keeps one mask per layer, the states reachable after
    each prefix.  With f the lowest final state of the last layer, a
    backward pass intersects each layer with the states that reach f on the
    rest of the word, and a greedy walk then takes the lowest such state at
    every step.  The result is the lexicographically least state sequence
    from an initial state to f, the run that breadth-first simulation with
    first-found parent pointers also picks.
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
    states = [(alive[0] & -alive[0]).bit_length() - 1]
    for k, sym_id in enumerate(symbol_ids):
        dsts = compiled.transitions[states[-1]].get(sym_id, ())
        states.append(min(d for d in dsts if alive[k + 1] >> d & 1))
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


def includes(container: Nfa, contained: Nfa, antichain: bool = True) -> InclusionResult:
    """Decide L(contained) <= L(container).

    The container is compiled once per call into the int-bitset kernel, so
    a subset of its states is a plain int mask.  The search explores pairs
    (state of contained, container subset) breadth-first from the initial
    pairs, expanding each pair's symbols in sorted order.  A pair whose
    contained state is final while its subset holds no final container state
    ends the search, and the counterexample is rebuilt from stored parents.
    With ``antichain`` set, a pair is pruned when an already stored pair of
    the same contained state has a subset of its subset (De Wulf et al.,
    CAV 2006); ``antichain=False`` stores every reachable pair and serves as
    a cross-check.

    The counterexample is always a shortest word of L(contained) minus
    L(container).  When the contained machine is deterministic, as the syntax
    checkers are, it is also the shortlex-least such word in symbol order.
    With a nondeterministic contained machine it need not be shortlex-least:
    breadth-first order follows pairs, not words.
    """
    if container.alphabet.symbols != contained.alphabet.symbols:
        raise ValueError("inclusion requires a common alphabet")
    stepper = _BitsetStepper(container, 32, _TABLE_LIMIT, 0)
    everything = (1 << container.num_states) - 1
    start, final = stepper.initial, stepper.final
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
            subset_steps=stepper.steps,
            antichain_peak=max(map(len, chains), default=0),
            subset_popcount_mean=(
                sum(k.bit_count() for chain in chains for k in chain) / stored
                if stored
                else 0.0
            ),
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

    while queue:
        qb, mask = queue.popleft()
        for sym_id, dsts in sorted(contained.transitions[qb].items()):
            nmask = stepper.step(mask, sym_id)
            for db in dsts:
                node = (db, nmask)
                if node in visited:
                    continue
                if antichain and _subsumed(kept.get(db, {}), everything ^ nmask):
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
        if symbol.is_pair:
            return f'"[{symbol.bits[0]},{symbol.bits[1]}]{symbol.tag}"'
        return f'"{symbol.bits[0]}{symbol.tag}"'

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
