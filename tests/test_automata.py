"""Engine tests: hand-built machines plus randomized agreement checks.

Random machines are small enough that exhaustive word enumeration decides
every question the engine answers, so the checks are exact.  Most machines
speak two folded letters, and one speaks plain strings, since the engine
only sorts, hashes and prints its symbols.
"""

import itertools
import random
from collections import deque
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsquares import automata
from binsquares.automata import (
    Alphabet,
    Nfa,
    PathKernel,
    accepting_path,
    co_reachable,
    includes,
    quotient,
    to_automata_script,
    to_dot,
)
from binsquares.folding import Symbol
from binsquares.proofcheck import check_forward

X0 = Symbol("x", (0,))
X1 = Symbol("x", (1,))
BITS = Alphabet([X0, X1])


def words_shortlex(alphabet, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet.symbols, repeat=length)


def machine(alphabet, num_states, edges, initial=(0,), final=()):
    """The machine with the (source, symbol id, target) edges: each row holds
    its symbols in the order of their first edge, each with its successors
    in increasing order."""
    rows = [{} for _ in range(num_states)]
    for src, sym_id, dst in edges:
        rows[src].setdefault(sym_id, set()).add(dst)
    table = [{sym_id: tuple(sorted(dsts)) for sym_id, dsts in row.items()} for row in rows]
    return Nfa(alphabet, num_states, frozenset(initial), frozenset(final), table)


def random_nfa(rng, alphabet, num_states, edge_prob=0.3, final_prob=0.4):
    transitions = []
    for _ in range(num_states):
        row = {}
        for sym_id in range(len(alphabet)):
            dsts = tuple(
                d for d in range(num_states) if rng.random() < edge_prob
            )
            if dsts:
                row[sym_id] = dsts
        transitions.append(row)
    initial = {rng.randrange(num_states)}
    final = frozenset(
        q for q in range(num_states) if rng.random() < final_prob
    )
    return Nfa(
        alphabet=alphabet,
        num_states=num_states,
        initial=frozenset(initial),
        final=final,
        transitions=transitions,
    )


def test_alphabet_interning_and_codec():
    assert len(BITS) == 2
    assert BITS.id_of(X0) == 0 and BITS.id_of(X1) == 1
    word = (X1, X0, X1)
    assert BITS.decode(BITS.id_of(s) for s in word) == word
    with pytest.raises(KeyError):
        BITS.id_of(Symbol("y", (0,)))
    with pytest.raises(ValueError):
        Alphabet([])


def even_ones_machine():
    # state 0 has read an even number of 1x, state 1 an odd number
    return machine(BITS, 2, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)], final={0})


def test_builder_and_accepts():
    m = even_ones_machine()
    assert m.num_states == 2
    assert m.accepts(())
    assert m.accepts((X1, X1))
    assert not m.accepts((X1, X0))
    assert m.num_transitions() == 4


def test_machine_rejects_a_malformed_table():
    def build(num_states, initial, final):
        return Nfa(BITS, num_states, frozenset(initial), frozenset(final), [{0: (0,)}])

    with pytest.raises(ValueError, match="size mismatch"):
        build(2, {0}, ())
    for initial, final in (({1}, ()), ({0}, {1}), ({-1}, ())):
        with pytest.raises(ValueError, match="out of range"):
            build(1, initial, final)


def test_co_reachable_matches_frozenset_simulation():
    # a state with a path to a final state has one of fewer letters than
    # there are states; Nfa.accepts steps frozensets forward and shares no
    # code with the backward search over predecessor lists
    rng = random.Random(14)
    dead = 0
    for _ in range(20):
        m = random_nfa(rng, BITS, 5)
        predecessors = [[] for _ in range(m.num_states)]
        for src, _, dst in m.walk():
            predecessors[dst].append(src)
        found = co_reachable(predecessors, m.final)
        assert found == sorted(found)
        expected = []
        for q in range(m.num_states):
            probe = Nfa(
                alphabet=m.alphabet,
                num_states=m.num_states,
                initial=frozenset({q}),
                final=m.final,
                transitions=m.transitions,
            )
            if any(probe.accepts(w) for w in words_shortlex(BITS, m.num_states)):
                expected.append(q)
        assert found == expected
        dead += m.num_states - len(found)
    assert dead


def brute_inclusion(container, contained, max_len):
    for w in words_shortlex(BITS, max_len):
        if contained.accepts(w) and not container.accepts(w):
            return w
    return None


def test_includes_agrees_with_enumeration():
    rng = random.Random(15)
    holds_seen = fails_seen = 0
    for _ in range(40):
        container = random_nfa(rng, BITS, 4)
        contained = random_nfa(rng, BITS, 3)
        res = includes(container, contained)
        brute = brute_inclusion(container, contained, 8)
        if res.holds:
            holds_seen += 1
            assert brute is None
        else:
            fails_seen += 1
            assert contained.accepts(res.counterexample)
            assert not container.accepts(res.counterexample)
            assert brute is not None
            assert len(res.counterexample) == len(brute)
    assert holds_seen > 0 and fails_seen > 0


def reference_includes(container, contained):
    """The antichain search on frozensets, written independently of the
    bitset kernel: (holds, counterexample, explored)."""
    visited = {}
    kept = {}
    queue = deque()

    def found(node):
        word = []
        while visited[node] is not None:
            node, sym_id = visited[node]
            word.append(sym_id)
        return False, BITS.decode(reversed(word)), len(visited)

    def bad(node):
        state, subset = node
        return state in contained.final and not subset & container.final

    start = frozenset(container.initial)
    for qb in sorted(contained.initial):
        node = (qb, start)
        if node in visited:
            continue
        visited[node] = None
        if bad(node):
            return found(node)
        kept.setdefault(qb, []).append(start)
        queue.append(node)
    while queue:
        qb, subset = queue.popleft()
        for sym_id, dsts in sorted(contained.transitions[qb].items()):
            nsubset = container.successors(subset, sym_id)
            for db in dsts:
                node = (db, nsubset)
                if node in visited or any(k <= nsubset for k in kept.get(db, ())):
                    continue
                visited[node] = ((qb, subset), sym_id)
                if bad(node):
                    return found(node)
                kept.setdefault(db, []).append(nsubset)
                queue.append(node)
    return True, None, len(visited)


@st.composite
def machines(draw, max_states, deterministic=False):
    """Random machines over BITS; sparse rows and an empty initial set let a
    container's subset run empty, the empty-mask case of the kernel."""
    n = draw(st.integers(1, max_states))
    state = st.integers(0, n - 1)
    dsts = st.sets(state, max_size=1 if deterministic else n)
    transitions = []
    for _ in range(n):
        row = {sym_id: tuple(sorted(draw(dsts))) for sym_id in range(len(BITS))}
        transitions.append({sym_id: d for sym_id, d in row.items() if d})
    return Nfa(
        alphabet=BITS,
        num_states=n,
        initial=frozenset(draw(st.sets(state, max_size=1 if deterministic else 2))),
        final=frozenset(draw(st.sets(state))),
        transitions=transitions,
    )


@settings(max_examples=300)
@given(machines(5), st.booleans(), st.data())
def test_includes_property_matches_enumeration_and_reference(
    container, deterministic, data
):
    contained = data.draw(machines(3, deterministic))
    res = includes(container, contained)
    bound = 8 if res.holds else len(res.counterexample)
    brute = brute_inclusion(container, contained, bound)
    assert res.holds == (brute is None)
    if not res.holds:
        # a shortest counterexample; shortlex-least when contained is a DFA
        assert contained.accepts(res.counterexample)
        assert not container.accepts(res.counterexample)
        assert len(brute) == len(res.counterexample)
        if deterministic:
            assert res.counterexample == brute
    assert (res.holds, res.counterexample, res.explored) == reference_includes(
        container, contained
    )
    assert res.antichain_peak <= res.explored


def runs_of(nfa, ids):
    """Every run of the machine over the word, from each initial state."""
    runs = [(q,) for q in sorted(nfa.initial)]
    for sym_id in ids:
        runs = [r + (d,) for r in runs for d in nfa.transitions[r[-1]].get(sym_id, ())]
    return runs


def backward_sets(nfa, ids):
    """Per position, the states from which the rest of the word is accepted,
    down to the first empty set."""
    sets = [set(nfa.final)]
    for sym_id in reversed(ids):
        if not sets[0]:
            break
        rows = enumerate(nfa.transitions)
        sets.insert(0, {q for q, row in rows if sets[0].intersection(row.get(sym_id, ()))})
    return sets


@settings(max_examples=200)
@given(machines(5), st.lists(st.integers(0, len(BITS) - 1), max_size=5))
def test_accepting_path_is_least_accepting_run(nfa, ids):
    accepting = [r for r in runs_of(nfa, ids) if r[-1] in nfa.final]
    sets = backward_sets(nfa, ids)
    path = accepting_path(PathKernel(nfa), ids)
    assert path.visited == sum(map(len, sets))
    assert path.frontier_max == max(map(len, sets))
    if not accepting:
        assert path.states is None
    else:
        assert tuple(path.states) == min(accepting)


@st.composite
def disjoint_unions(draw):
    """Small machines side by side, numbered one after another, each with
    its first state initial and one final state of its own, and no edge
    from one machine to another: the shape of a family runtime's union."""
    transitions, initial, final = [], set(), set()
    for _ in range(draw(st.integers(1, 4))):
        base, n = len(transitions), draw(st.integers(1, 4))
        state = st.integers(base, base + n - 1)
        for _ in range(n):
            row = {sym_id: tuple(sorted(draw(st.sets(state, max_size=n)))) for sym_id in range(len(BITS))}
            transitions.append({sym_id: d for sym_id, d in row.items() if d})
        initial.add(base)
        final.add(draw(state))
    return Nfa(BITS, len(transitions), frozenset(initial), frozenset(final), transitions)


@settings(max_examples=200)
@given(disjoint_unions(), st.lists(st.integers(0, len(BITS) - 1), max_size=6))
def test_least_accepting_run_of_a_disjoint_union_ends_at_the_lowest_final(nfa, ids):
    # the run to the lowest reachable final state, which an earlier path
    # search returned, is the least accepting run on such unions
    runs = runs_of(nfa, ids)
    reached = [r[-1] for r in runs if r[-1] in nfa.final]
    path = accepting_path(PathKernel(nfa), ids)
    if not reached:
        assert path.states is None
    else:
        assert tuple(path.states) == min(r for r in runs if r[-1] == min(reached))


def test_kernel_steps_back_across_chunks():
    rng = random.Random(17)
    nfa = random_nfa(rng, BITS, 200, edge_prob=0.02)
    kernel = PathKernel(nfa)
    masks = [0, (1 << 200) - 1] + [rng.getrandbits(200) & rng.getrandbits(200) for _ in range(30)]
    for mask in masks:
        chosen = {q for q in range(200) if mask >> q & 1}
        for sym_id in range(len(BITS)):
            backward = sum(
                1 << q for q in range(200) if chosen & set(nfa.transitions[q].get(sym_id, ()))
            )
            # the second answer of each pair comes from the memo
            hits = kernel.memo_hits
            assert [kernel.back(mask, sym_id) for _ in range(2)] == [backward] * 2
            assert kernel.memo_hits == hits + 1


@settings(max_examples=100)
@given(
    machines(8),
    st.lists(st.lists(st.integers(0, len(BITS) - 1), max_size=12), max_size=12),
)
def test_long_lived_kernel_finds_the_paths_of_fresh_ones(nfa, words):
    # one kernel with the module's caps and one whose memo and tables start
    # over every few entries, each stepping every word in turn
    kernel, capped = PathKernel(nfa), PathKernel(nfa)
    for word in words:
        fresh = accepting_path(PathKernel(nfa), word)
        assert accepting_path(kernel, word)[:3] == fresh[:3]
        with patch.object(automata, "_TABLE_LIMIT", 1), patch.object(automata, "_MEMO_LIMIT", 3):
            assert accepting_path(capped, word)[:3] == fresh[:3]


def _largest_table(kernel):
    return max(len(t) for row in kernel._tables for t in row)


def _largest_row_table(kernel):
    return max((len(t) for tables in kernel._tables.values() for t in tables), default=0)


def _memo_entries(kernel):
    return sum(map(len, kernel._memo))


def test_capped_lookup_tables_change_no_result(monkeypatch):
    rng = random.Random(29)
    cases = []
    for _ in range(6):
        nfa = random_nfa(rng, BITS, rng.randrange(64, 200), edge_prob=0.03)
        words = [
            [rng.randrange(len(BITS)) for _ in range(rng.randrange(1, 40))]
            for _ in range(20)
        ]
        cases.append((nfa, words))

    def run_all():
        kernels = [PathKernel(nfa) for nfa, _ in cases]
        paths = [
            # states, visited and frontier_max; memo hits follow the caps
            [accepting_path(kernel, word)[:3] for word in words]
            for kernel, (_, words) in zip(kernels, cases)
        ]
        inclusions = [includes(a, b) for (a, _), (b, _) in zip(cases, cases[1:])]
        return kernels, paths, inclusions

    kernels, paths, inclusions = run_all()
    limit, memo_limit = 3, 5
    # the caps will bite: on the chunk tables and on the memos
    assert max(map(_largest_table, kernels)) > limit
    assert min(map(_memo_entries, kernels)) > memo_limit
    monkeypatch.setattr(automata, "_TABLE_LIMIT", limit)
    monkeypatch.setattr(automata, "_MEMO_LIMIT", memo_limit)
    capped_kernels, capped_paths, capped_inclusions = run_all()
    assert capped_paths == paths
    assert capped_inclusions == inclusions
    assert max(map(_largest_table, capped_kernels)) <= limit
    assert max(map(_memo_entries, capped_kernels)) <= memo_limit


def pruning_machines():
    """A one-state container a that loops on 1x, and a contained machine
    whose s (0) goes to t (1) on 0x and to u (2) on 1x, u to t on 1x, and t
    loops on both letters."""
    container = machine(BITS, 1, [(0, 1, 0)], final={0})
    contained = machine(BITS, 3, [(0, 0, 1), (0, 1, 2), (2, 1, 1), (1, 0, 1), (1, 1, 1)])
    return container, contained


def test_includes_prunes_with_the_empty_subset():
    # "0" kills the container, so the pair (t, {}) is stored first and
    # subsumes (t, {a}), reached later by "11"
    container, contained = pruning_machines()
    res = includes(container, contained)
    assert res.holds
    assert res.explored == 3
    assert reference_includes(container, contained) == (True, None, 3)


def test_includes_is_reflexive():
    rng = random.Random(16)
    for _ in range(10):
        a = random_nfa(rng, BITS, 4)
        b = random_nfa(rng, BITS, 3)
        assert includes(a, a).holds
        assert includes(b, b).holds


def test_empty_counterexample_word():
    accept_nothing = machine(BITS, 1, [])
    accept_empty = machine(BITS, 1, [], final={0})
    res = includes(accept_nothing, accept_empty)
    assert not res.holds
    assert res.counterexample == ()


def test_dot_export_shape():
    text = to_dot(even_ones_machine(), name="parity")
    assert text.startswith("digraph parity {")
    assert "doublecircle" in text
    assert '"0x, 1x"' in text or 'label="0x"' in text
    assert text == to_dot(even_ones_machine(), name="parity")


def test_automata_script_export_shape():
    m = even_ones_machine()
    text = to_automata_script(m, name="parity")
    assert text.startswith("NestedWordAutomaton parity = (")
    assert 'internalAlphabet = { "0x", "1x" }' in text
    assert text.count('("q') == m.num_transitions()
    assert "callTransitions = { }" in text


@st.composite
def antichain_cases(draw):
    """A family of masks over up to 200 states, with the empty mask and masks
    sharing a lowest or a highest bit mixed in, and a candidate mask that is
    random or built from a stored one."""
    n = draw(st.integers(1, 200))
    masks = st.integers(0, (1 << n) - 1)
    family = draw(st.lists(masks, max_size=24))
    if draw(st.booleans()):
        family.append(0)
    for k in list(family):
        if k and draw(st.booleans()):
            low, high, extra = k & -k, 1 << k.bit_length() - 1, draw(masks)
            family.append(low | extra & ~((low << 1) - 1))
            family.append(high | extra & (high - 1))
    candidate = draw(masks)
    if family:
        stored = draw(st.sampled_from(family))
        candidate = draw(
            st.sampled_from((candidate, stored, stored | candidate, stored & candidate))
        )
    return n, family, candidate


@settings(max_examples=400)
@given(antichain_cases())
def test_antichain_index_agrees_with_brute_force(case):
    n, family, candidate = case
    kept = {}
    for k in family:
        automata._keep(kept, k)
    held = [k for by_high in kept.values() for masks in by_high.values() for k in masks]
    assert sorted(held) == sorted(family)
    outside = ((1 << n) - 1) ^ candidate
    assert automata._subsumed(kept, outside) == any(not k & ~candidate for k in family)


def test_capped_lookup_tables_reach_the_inclusion_kernels(monkeypatch):
    # the capped-table test runs includes too; its row kernels must be big
    # enough for the cap to bite
    inclusion = []

    class Recording(automata._RowKernel):
        def __init__(self, nfa):
            super().__init__(nfa)
            inclusion.append(self)

    monkeypatch.setattr(automata, "_RowKernel", Recording)
    test_capped_lookup_tables_change_no_result(monkeypatch)
    assert len(inclusion) == 10  # five inclusions, uncapped and then capped
    assert max(map(_largest_row_table, inclusion[:5])) > 3
    assert max(map(_largest_row_table, inclusion[5:])) <= 3


LETTERS = Alphabet([Symbol(tag, (0,)) for tag in "abcde"])


@st.composite
def row_cases(draw):
    """A sparse machine over five letters with up to three 32-bit chunks of
    states, some subsets of its states as masks and a sorted tuple of symbol
    ids."""
    n = draw(st.integers(1, 90))
    state = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(state, st.integers(0, len(LETTERS) - 1), state), max_size=200))
    nfa = machine(LETTERS, n, edges, initial=())
    chosen = draw(st.lists(st.sets(state), min_size=1, max_size=8))
    masks = [sum(1 << q for q in states) for states in chosen]
    sym_ids = tuple(sorted(draw(st.sets(st.integers(0, len(LETTERS) - 1)))))
    return nfa, masks, sym_ids


@pytest.mark.parametrize("limit", [automata._TABLE_LIMIT, 1])
@settings(max_examples=150)
@given(row_cases())
def test_row_step_matches_successors_per_symbol(limit, case):
    # a limit of 1 clears a table on every insertion
    nfa, masks, sym_ids = case
    kernel = automata._RowKernel(nfa)
    with patch.object(automata, "_TABLE_LIMIT", limit):
        for mask in masks + masks:  # the second round finds entries or rebuilds them
            chosen = frozenset(q for q in range(nfa.num_states) if mask >> q & 1)
            want = [sum(1 << d for d in nfa.successors(chosen, s)) for s in sym_ids]
            assert kernel.step_row(mask, sym_ids) == want
    assert kernel.steps == 2 * len(masks) * len(sym_ids)


def test_includes_reports_the_mean_subset_popcount():
    # the machines of the empty-subset test store {a}, {} and {a}
    container, contained = pruning_machines()
    assert includes(container, contained).subset_popcount_mean == 2 / 3
    # a counterexample at the initial pair leaves nothing stored
    accept_empty = machine(BITS, 1, [], final={0})
    res = includes(contained, accept_empty)
    assert (res.holds, res.subset_popcount_mean) == (False, 0.0)


TRIPLE = Alphabet([X0, X1, Symbol("y", (0,))])


@st.composite
def triple_machines(draw):
    """Random machines of up to 12 states over three symbols."""
    n = draw(st.integers(1, 12))
    state = st.integers(0, n - 1)
    transitions = []
    for _ in range(n):
        row = {sym_id: tuple(sorted(draw(st.sets(state, max_size=3)))) for sym_id in range(3)}
        transitions.append({sym_id: d for sym_id, d in row.items() if d})
    return Nfa(
        alphabet=TRIPLE,
        num_states=n,
        initial=frozenset(draw(st.sets(state, max_size=3))),
        final=frozenset(draw(st.sets(state))),
        transitions=transitions,
    )


def naive_blocks(rows, marked):
    """Coarsest stable partition by re-signing every state each round,
    blocks numbered by first occurrence."""
    block = [int(q in marked) for q in range(len(rows))]
    while True:
        ids = {}
        refined = [
            ids.setdefault(
                (block[q], frozenset((s, frozenset(block[d] for d in ds)) for s, ds in row.items())),
                len(ids),
            )
            for q, row in enumerate(rows)
        ]
        if len(ids) == len(set(block)):
            return refined
        block = refined


@settings(max_examples=100)
@given(triple_machines())
def test_quotient_keeps_the_language(nfa):
    collapsed = quotient(nfa)
    machine = collapsed.machine
    for word in words_shortlex(TRIPLE, 6):
        assert machine.accepts(word) == nfa.accepts(word)
    again = quotient(machine).machine
    assert (again.num_states, again.num_transitions()) == (
        machine.num_states,
        machine.num_transitions(),
    )
    check_forward(nfa, machine, collapsed.forward)
    # the worklist refinement finds the partition a full re-sign finds
    assert list(collapsed.forward) == naive_blocks(nfa.transitions, nfa.final)


def test_quotient_merges_states_with_the_same_future():
    # two branches, s (0) to 1 to 2 and s to 3 to 4, that accept 1x after
    # 0x collapse into one chain
    nfa = machine(BITS, 5, [(0, 0, 1), (1, 1, 2), (0, 0, 3), (3, 1, 4)], final={2, 4})
    collapsed = quotient(nfa)
    assert (nfa.num_states, collapsed.machine.num_states) == (5, 3)
    assert collapsed.machine.num_transitions() == 2


def test_the_kit_runs_on_plain_string_symbols():
    # symbols are opaque to the engine: sorted, hashed and shown with str
    letters = Alphabet(["b", "a"])
    a, b = letters.id_of("a"), letters.id_of("b")
    ends_in_b = machine(letters, 2, [(0, a, 0), (0, b, 0), (0, b, 1)], final={1})
    a_star_b = machine(letters, 2, [(0, a, 0), (0, b, 1)], final={1})
    assert includes(ends_in_b, a_star_b).holds
    refuted = includes(a_star_b, ends_in_b)
    assert (refuted.holds, refuted.counterexample) == (False, ("b", "b"))
    assert accepting_path(PathKernel(ends_in_b), [a, b, b]).states == [0, 0, 0, 1]
    with pytest.raises(KeyError, match="symbol c not in alphabet"):
        letters.id_of("c")
    forked = machine(letters, 5, [(0, a, 1), (1, b, 2), (0, a, 3), (3, b, 4)], final={2, 4})
    collapsed = quotient(forked)
    assert collapsed.machine.num_states == 3
    check_forward(forked, collapsed.machine, collapsed.forward)
    assert to_dot(ends_in_b, name="ends") == (
        "digraph ends {\n"
        "  rankdir=LR;\n"
        "  node [shape=circle];\n"
        "  q1 [shape=doublecircle];\n"
        "  start0 [shape=point];\n"
        "  start0 -> q0;\n"
        '  q0 -> q0 [label="a, b"];\n'
        '  q0 -> q1 [label="b"];\n'
        "}\n"
    )
    assert to_automata_script(ends_in_b, name="ends") == (
        "NestedWordAutomaton ends = (\n"
        "  callAlphabet = { },\n"
        '  internalAlphabet = { "a", "b" },\n'
        "  returnAlphabet = { },\n"
        '  states = { "q0" "q1" },\n'
        '  initialStates = { "q0" },\n'
        '  finalStates = { "q1" },\n'
        "  callTransitions = { },\n"
        "  internalTransitions = {\n"
        '    ("q0" "a" "q0")\n'
        '    ("q0" "b" "q0")\n'
        '    ("q0" "b" "q1")\n'
        "  },\n"
        "  returnTransitions = { }\n"
        ");\n"
    )
    assert letters.ids == {"a": a, "b": b} == {"a": 0, "b": 1}
