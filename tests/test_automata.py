"""Engine tests: hand-built machines plus randomized agreement checks.

Random machines are small enough that exhaustive word enumeration decides
every question the engine answers, so the checks are exact.
"""

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsquares import automata
from binsquares.automata import (
    Alphabet,
    Nfa,
    NfaBuilder,
    Symbol,
    accepting_path,
    compile_nfa,
    includes,
    intersect,
    is_empty,
    quotient,
    to_automata_script,
    to_dot,
    trim,
    union,
)
from binsquares.proofcheck import check_backward, check_forward

X0 = Symbol("x", (0,))
X1 = Symbol("x", (1,))
BITS = Alphabet([X0, X1])


def words_shortlex(alphabet, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet.symbols, repeat=length)


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


def test_symbol_render_and_order():
    pair = Symbol("b", (1, 0))
    assert pair.is_pair
    assert pair.render() == "[1,0]b"
    assert X0.render() == "0x"
    assert sorted([X1, X0]) == [X0, X1]


def test_symbol_rejects_bad_payload():
    with pytest.raises(ValueError):
        Symbol("a", (0, 1, 1))
    with pytest.raises(ValueError):
        Symbol("a", (2,))


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
    b = NfaBuilder(BITS)
    b.mark_initial("even")
    b.mark_final("even")
    b.add_edge("even", X0, "even")
    b.add_edge("even", X1, "odd")
    b.add_edge("odd", X0, "odd")
    b.add_edge("odd", X1, "even")
    return b.build()


def test_builder_and_accepts():
    m = even_ones_machine()
    assert m.num_states == 2
    assert m.accepts(())
    assert m.accepts((X1, X1))
    assert not m.accepts((X1, X0))
    assert m.num_transitions() == 4


def test_union_is_language_union():
    rng = random.Random(11)
    for _ in range(20):
        a = random_nfa(rng, BITS, 3)
        b = random_nfa(rng, BITS, 4)
        u = union([a, b])
        assert u.num_states == a.num_states + b.num_states
        for w in words_shortlex(BITS, 6):
            assert u.accepts(w) == (a.accepts(w) or b.accepts(w))


def test_intersect_is_language_intersection():
    rng = random.Random(12)
    for _ in range(20):
        a = random_nfa(rng, BITS, 3)
        b = random_nfa(rng, BITS, 3)
        p = intersect(a, b)
        for w in words_shortlex(BITS, 6):
            assert p.accepts(w) == (a.accepts(w) and b.accepts(w))


def test_is_empty_finds_shortlex_minimal_word():
    rng = random.Random(13)
    empties = 0
    for _ in range(40):
        # 3 states means at most 8 frontier sets, so length 7 is exhaustive.
        m = random_nfa(rng, BITS, 3, edge_prob=0.25, final_prob=0.3)
        got = is_empty(m)
        expected = next(
            (w for w in words_shortlex(BITS, 7) if m.accepts(w)), None
        )
        if expected is None:
            empties += 1
            assert got is None
        else:
            assert got == expected
    assert empties > 0


def test_trim_preserves_language_and_drops_dead_states():
    rng = random.Random(14)
    for _ in range(20):
        m = random_nfa(rng, BITS, 5)
        t = trim(m)
        assert t.num_states <= m.num_states
        for w in words_shortlex(BITS, 6):
            assert t.accepts(w) == m.accepts(w)
        # every surviving state lies on some accepting path
        for q in range(t.num_states):
            probe = Nfa(
                alphabet=t.alphabet,
                num_states=t.num_states,
                initial=frozenset({q}),
                final=t.final,
                transitions=t.transitions,
            )
            assert is_empty(probe) is not None


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
        plain = includes(container, contained, antichain=False)
        assert plain.holds == res.holds
        if not res.holds:
            assert len(plain.counterexample) == len(res.counterexample)
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
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
    plain = includes(container, contained, antichain=False)
    assert plain.holds == res.holds
    assert plain.explored >= res.explored


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(machines(5), st.lists(st.integers(0, len(BITS) - 1), max_size=5))
def test_accepting_path_is_least_run_to_lowest_final(nfa, ids):
    runs = [(q,) for q in sorted(nfa.initial)]
    layers = [nfa.initial]
    for sym_id in ids:
        if not runs:
            break
        runs = [r + (d,) for r in runs for d in nfa.transitions[r[-1]].get(sym_id, ())]
        layers.append({r[-1] for r in runs})
    accepting = [r for r in runs if r[-1] in nfa.final]
    path = accepting_path(compile_nfa(nfa), ids)
    assert path.visited == sum(map(len, layers))
    assert path.frontier_max == max(map(len, layers))
    if not accepting:
        assert path.states is None
    else:
        lowest = min(r[-1] for r in accepting)
        assert tuple(path.states) == min(r for r in accepting if r[-1] == lowest)


def test_kernel_steps_forward_and_back_across_chunks():
    rng = random.Random(17)
    nfa = random_nfa(rng, BITS, 200, edge_prob=0.02)
    kernel = compile_nfa(nfa)
    masks = [0, (1 << 200) - 1] + [rng.getrandbits(200) & rng.getrandbits(200) for _ in range(30)]
    for mask in masks:
        chosen = {q for q in range(200) if mask >> q & 1}
        for sym_id in range(len(BITS)):
            forward = sum(1 << d for d in nfa.successors(frozenset(chosen), sym_id))
            backward = sum(
                1 << q for q in range(200) if chosen & set(nfa.transitions[q].get(sym_id, ()))
            )
            # the second answer of each pair comes from the memo
            hits = kernel.memo_hits
            assert [kernel.step(mask, sym_id) for _ in range(2)] == [forward] * 2
            assert [kernel.back(mask, sym_id) for _ in range(2)] == [backward] * 2
            assert kernel.memo_hits == hits + 2


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    machines(8),
    st.lists(st.lists(st.integers(0, len(BITS) - 1), max_size=12), max_size=12),
)
def test_long_lived_kernel_finds_the_paths_of_fresh_ones(nfa, words):
    # one kernel with the module's caps and one whose memo and tables start
    # over every few entries, each stepping every word in turn
    kernels = [compile_nfa(nfa), automata._BitsetStepper(nfa, 64, 1, 3)]
    for word in words:
        fresh = accepting_path(compile_nfa(nfa), word)
        for kernel in kernels:
            assert accepting_path(kernel, word)[:3] == fresh[:3]


def _largest_table(kernel):
    return max(len(t) for tables in (kernel._tables, kernel._back_tables) for row in tables for t in row)


def _memo_entries(kernel):
    return sum(len(memo) for memo in kernel._memo if memo is not None)


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
        kernels = [compile_nfa(nfa) for nfa, _ in cases]
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
    monkeypatch.setattr(automata, "_PATH_TABLE_LIMIT", limit)
    monkeypatch.setattr(automata, "_MEMO_LIMIT", memo_limit)
    capped_kernels, capped_paths, capped_inclusions = run_all()
    assert capped_paths == paths
    assert capped_inclusions == inclusions
    assert max(map(_largest_table, capped_kernels)) <= limit
    assert max(map(_memo_entries, capped_kernels)) <= memo_limit


def test_includes_prunes_with_the_empty_subset():
    # "0" kills the container, so the pair (t, {}) is stored first and
    # subsumes (t, {a}), reached later by "11"
    b = NfaBuilder(BITS)
    b.mark_initial("a")
    b.mark_final("a")
    b.add_edge("a", X1, "a")
    container = b.build()
    c = NfaBuilder(BITS)
    c.mark_initial("s")
    c.add_edge("s", X0, "t")
    c.add_edge("s", X1, "u")
    c.add_edge("u", X1, "t")
    c.add_edge("t", X0, "t")
    c.add_edge("t", X1, "t")
    contained = c.build()
    res = includes(container, contained)
    assert res.holds
    assert res.explored == 3
    assert reference_includes(container, contained) == (True, None, 3)


def test_includes_reflexive_and_of_union_parts():
    rng = random.Random(16)
    for _ in range(10):
        a = random_nfa(rng, BITS, 4)
        b = random_nfa(rng, BITS, 3)
        u = union([a, b])
        assert includes(a, a).holds
        assert includes(u, a).holds
        assert includes(u, b).holds


def test_empty_counterexample_word():
    accept_nothing = NfaBuilder(BITS)
    accept_nothing.mark_initial("q")
    none_machine = accept_nothing.build()
    accept_empty = NfaBuilder(BITS)
    accept_empty.mark_initial("q")
    accept_empty.mark_final("q")
    res = includes(none_machine, accept_empty.build())
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


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
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
    # the capped-table test runs includes too; its kernels must be the
    # 32-bit ones and big enough for the cap to bite
    built = []

    class Recording(automata._BitsetStepper):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(automata, "_BitsetStepper", Recording)
    test_capped_lookup_tables_change_no_result(monkeypatch)
    inclusion = [k for k in built if k._chunk_bits == 32]
    assert len(inclusion) == 10  # five inclusions, uncapped and then capped
    assert max(map(_largest_table, inclusion[:5])) > 3
    assert max(map(_largest_table, inclusion[5:])) <= 3
    # and they keep no step memo
    assert all(memo is None for k in inclusion for memo in k._memo)
    assert sum(k.memo_hits for k in inclusion) == 0


def test_includes_reports_the_mean_subset_popcount():
    # the machines of the empty-subset test store {a}, {} and {a}
    b = NfaBuilder(BITS)
    b.mark_initial("a")
    b.mark_final("a")
    b.add_edge("a", X1, "a")
    c = NfaBuilder(BITS)
    c.mark_initial("s")
    c.add_edge("s", X0, "t")
    c.add_edge("s", X1, "u")
    c.add_edge("u", X1, "t")
    c.add_edge("t", X0, "t")
    c.add_edge("t", X1, "t")
    assert includes(b.build(), c.build()).subset_popcount_mean == 2 / 3
    # a counterexample at the initial pair leaves nothing stored
    accept_empty = NfaBuilder(BITS)
    accept_empty.mark_initial("q")
    accept_empty.mark_final("q")
    res = includes(c.build(), accept_empty.build())
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(triple_machines())
def test_quotient_keeps_the_language(nfa):
    collapsed = quotient(nfa)
    machine, middle = collapsed.machine, collapsed.middle
    for word in words_shortlex(TRIPLE, 6):
        assert machine.accepts(word) == nfa.accepts(word)
    again = quotient(machine).machine
    assert (again.num_states, again.num_transitions()) == (
        machine.num_states,
        machine.num_transitions(),
    )
    check_forward(nfa, middle, collapsed.forward)
    check_backward(middle, machine, collapsed.backward)
    # the worklist refinement finds the partitions a full re-sign finds
    assert list(collapsed.forward) == naive_blocks(nfa.transitions, nfa.final)
    predecessors = [{} for _ in range(middle.num_states)]
    for src, sym_id, dst in middle.walk():
        predecessors[dst].setdefault(sym_id, set()).add(src)
    assert list(collapsed.backward) == naive_blocks(predecessors, middle.initial)


def test_quotient_merges_states_with_the_same_future():
    # two branches that accept x1 after x0 collapse into one chain
    b = NfaBuilder(BITS)
    b.mark_initial("s")
    for branch in "ab":
        b.add_edge("s", X0, branch)
        b.add_edge(branch, X1, branch + "!")
        b.mark_final(branch + "!")
    nfa = b.build()
    collapsed = quotient(nfa)
    assert (nfa.num_states, collapsed.machine.num_states) == (5, 3)
    assert collapsed.machine.num_transitions() == 2
