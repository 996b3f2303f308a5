"""Machine generator against the independent sumset oracle.

Every exactness test enumerates a machine's full accept set at some source
length and compares it with brute-force sums computed by the oracle, so the
two sides share no code path."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsquares import lemma_machines
from binsquares.automata import Nfa, includes, quotient
from binsquares.folding import LOOP_MIN, alphabet_for, fold, fold_layout, syntax_checker, unfold
from binsquares.lemma_machines import (
    FAMILY_COVERS,
    FAMILY_NAMES,
    TARGETS,
    FamilyRuntime,
    Profile,
    Summand,
    _ShapeTable,
    accept_set,
    alignment,
    cover_runtime,
    family_profiles,
    family_runtime,
    family_union,
    fixed_machine,
    select_profiles,
    uniform_machine,
)
from binsquares.oracle import profile_sum_mask


def window(mask: int, n: int) -> set[int]:
    return {v for v in range(1 << (n - 1), 1 << n) if mask >> v & 1}


def member_machines(runtime):
    """The (profile, machine) pairs of a runtime's members, in its order.
    A member is the block of union states from its start up to the next
    member's, and no edge leaves it, so its machine is that slice of the
    union's rows, renumbered from 0."""
    union = runtime.union
    stops = runtime.starts[1:] + (union.num_states,)
    members = []
    for profile, start, stop in zip(runtime.profiles, runtime.starts, stops):
        rows = [
            {sym: tuple(d - start for d in dsts) for sym, dsts in row.items()}
            for row in union.transitions[start:stop]
        ]
        initial = frozenset(q - start for q in union.initial if start <= q < stop)
        final = frozenset(q - start for q in union.final if start <= q < stop)
        members.append((profile, Nfa(union.alphabet, stop - start, initial, final, rows)))
    return members


def union_accepts(parity, summands, carries, n, max_powers=0, fixed=False):
    got = set()
    for m in carries:
        if fixed:
            nfa = fixed_machine(parity, n, summands, m, max_powers)
        else:
            nfa = uniform_machine(parity, summands, m, max_powers)
        got |= accept_set(nfa, parity, n)
    return got


def test_alignment_mapping():
    assert [alignment("odd", o) for o in (-1, 1, 3, 5)] == [1, 0, -1, -2]
    assert [alignment("even", o) for o in (0, 2, 4, 6)] == [2, 1, 0, -1]
    with pytest.raises(ValueError):
        alignment("odd", 2)
    with pytest.raises(ValueError):
        alignment("even", 3)
    with pytest.raises(ValueError):
        alignment("odd", 7)
    with pytest.raises(ValueError):
        alignment("even", -2)


def test_wider_odd_summand_needs_zero_top():
    with pytest.raises(ValueError):
        uniform_machine("odd", (Summand(-1, 1, "free"),), 0)
    uniform_machine("odd", (Summand(-1, 1, "zero"),), 0)


def family_shapes(name):
    """Each summand shape of a family, in family order, mapped to the seam
    carries its members have."""
    shapes = {}
    for p in family_profiles(name):
        shapes.setdefault(p.summands, []).append(p.carry)
    return shapes


def shape_params(name):
    """(offset, count) pairs and summand total of each shape of a family."""
    return [
        (tuple((s.offset, s.count) for s in summands), sum(s.count for s in summands))
        for summands in family_shapes(name)
    ]


def assert_shape_exact(name, counts, total, n):
    # the members the family ships for a shape accept its sums exactly, so
    # a live carry missing from the family table fails here
    parity = "odd" if n % 2 else "even"
    summands = tuple(Summand(o, c) for o, c in counts)
    carries = family_shapes(name)[summands]
    assert set(carries) <= set(range(total))
    expect = window(profile_sum_mask([(n - o, c) for o, c in counts], 1 << n), n)
    assert union_accepts(parity, summands, carries, n) == expect


@pytest.mark.parametrize("n", [11, 13, 15])
@pytest.mark.parametrize("counts,total", shape_params("a-odd"))
def test_odd_profile_exact(n, counts, total):
    assert_shape_exact("a-odd", counts, total, n)


@pytest.mark.parametrize("n", [12, 14])
@pytest.mark.parametrize("counts,total", shape_params("a-even"))
def test_even_profile_exact(n, counts, total):
    assert_shape_exact("a-even", counts, total, n)


@pytest.mark.parametrize(
    "parity,n,pairs",
    [
        ("odd", 11, [(12, 1), (10, 1), (8, 1)]),
        ("odd", 13, [(14, 1), (12, 1), (10, 1)]),
        ("even", 12, [(12, 1), (10, 1), (8, 1)]),
        ("even", 14, [(14, 1), (12, 1), (10, 1)]),
    ],
)
def test_generalized_exact(parity, n, pairs):
    expect = window(profile_sum_mask(pairs, 1 << (n + 2), generalized=True), n)
    got = set()
    for p in family_profiles(f"generalized-{parity}"):
        got |= accept_set(uniform_machine(p.parity, p.summands, p.carry, p.max_powers), parity, n)
    assert got == expect
    # three free halves reach every value of these lengths
    assert len(got) == 1 << (n - 1)


def power_pads(n: int) -> set[int]:
    pads = {0}
    pads |= {1 << a for a in range(n)}
    pads |= {(1 << a) + (1 << b) for a in range(n) for b in range(a, n)}
    return pads


@pytest.mark.parametrize("parity,n", [("odd", 11), ("odd", 13), ("even", 12)])
def test_square_power_family_exact(parity, n):
    expect_mask = 0
    got = set()
    for summands, carries in family_shapes(f"square-power-{parity}").items():
        pairs = [(n - s.offset, s.count) for s in summands]
        base = profile_sum_mask(pairs, 1 << n) if pairs else 1
        for pad in power_pads(n):
            expect_mask |= base << pad
        got |= union_accepts(parity, summands, carries, n, max_powers=2)
    assert got == window(expect_mask, n)


def test_square_power_single_member_sound():
    # one combo alone must not exceed its own sums: a sharper check than
    # the family union, which covers everything at these lengths
    n = 13
    base = profile_sum_mask([(12, 1)], 1 << n)
    expect_mask = 0
    for pad in power_pads(n):
        expect_mask |= base << pad
    expect = window(expect_mask, n)
    got = union_accepts("odd", (Summand(1, 1),), range(3), n, max_powers=2)
    assert got == expect


@pytest.mark.parametrize(
    "parity,n,summands,m",
    [
        ("odd", 13, (Summand(1, 1), Summand(3, 1), Summand(5, 1)), 1),
        ("odd", 11, (Summand(1, 2), Summand(3, 1)), 2),
        ("even", 12, (Summand(0, 1), Summand(4, 1), Summand(6, 1)), 0),
        ("even", 14, (Summand(2, 2), Summand(4, 2)), 3),
        ("even", 12, (Summand(2, 3), Summand(4, 1)), 1),
    ],
)
def test_uniform_and_fixed_agree(parity, n, summands, m):
    u = accept_set(uniform_machine(parity, summands, m), parity, n)
    f = accept_set(fixed_machine(parity, n, summands, m), parity, n)
    assert u == f


@pytest.mark.parametrize("n,ta,te", [(8, 3, 4), (10, 2, 4), (10, 3, 3)])
def test_fixed_short_lengths_exact(n, ta, te):
    # up-to counts expand into unions over exact counts
    expect_mask = 0
    got = set()
    for ca in range(ta + 1):
        for ce in range(te + 1):
            pairs = [(n - 4, ca), (n - 2, ce)]
            pairs = [p for p in pairs if p[1]]
            if not pairs:
                continue
            expect_mask |= profile_sum_mask(pairs, 1 << n)
            summands = tuple(
                s for s in (Summand(4, ca), Summand(2, ce)) if s.count
            )
            for m in range(ca + ce):
                got |= accept_set(fixed_machine("even", n, summands, m), "even", n)
    assert got == window(expect_mask, n)


def test_fixed_machine_rejects_cramped_layouts():
    with pytest.raises(ValueError):
        fixed_machine("odd", 5, (Summand(5, 1),), 0)  # needs i >= 4
    with pytest.raises(ValueError):
        fixed_machine("even", 6, (Summand(0, 1),), 0)  # needs i >= 2
    fixed_machine("even", 8, (Summand(0, 1),), 0)


def test_family_member_counts():
    counts = {name: len(family_profiles(name)) for name in FAMILY_NAMES}
    assert counts == {
        "a-odd": 13,
        "a-even": 10,
        "square-power-odd": 10,
        "square-power-even": 13,
        "generalized-odd": 3,
        "generalized-even": 3,
    }


def test_carry_ranges():
    for p in family_profiles("a-odd") + family_profiles("a-even"):
        assert 0 <= p.carry < p.total_count()
        assert p.max_powers == 0
    for parity in ("odd", "even"):
        for p in family_profiles(f"square-power-{parity}"):
            assert 0 <= p.carry < p.total_count() + 2
            assert p.max_powers == 2


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_families_ship_exactly_the_carries_that_accept_a_word(name):
    # below the summand count (plus the power budget) every seam carry is
    # possible; the family ships those whose member has an initial state
    # with a path to a final state
    wrong = []
    for summands, carries in family_shapes(name).items():
        p = next(p for p in family_profiles(name) if p.summands == summands)
        for m in range(p.total_count() + p.max_powers):
            nfa = uniform_machine(p.parity, summands, m, p.max_powers)
            accepts_a_word = not nfa.initial.isdisjoint(reference_live(nfa.transitions, nfa.final))
            if accepts_a_word != (m in carries):
                wrong.append((tuple(s.count for s in summands), m))
    assert not wrong


def test_carry_beyond_range_is_empty():
    # the low chain's carry stays below the summand count, so the seam
    # check can never succeed at or past it
    nfa = uniform_machine("odd", (Summand(1, 1), Summand(3, 1)), 2)
    assert accept_set(nfa, "odd", 13) == set()
    nfa = uniform_machine("even", (Summand(2, 2), Summand(4, 2)), 4)
    assert accept_set(nfa, "even", 12) == set()


# pairs the inclusion search stores; pruning and expansion order fix them
EXPLORED = {
    "a-odd": 595,
    "a-even": 2212,
    "square-power-odd": 1970,
    "square-power-even": 11892,
    "generalized-odd": 173,
    "generalized-even": 373,
}
# (subset_steps, antichain_peak) of the searches above and of the two
# refutations below, by family and gate
STEPS_AND_PEAK = {
    ("a-odd", 13): (3596, 332),
    ("a-even", 18): (14107, 1400),
    ("square-power-odd", 11): (10670, 738),
    ("square-power-even", 12): (62726, 5227),
    ("generalized-odd", 11): (788, 65),
    ("generalized-even", 12): (1235, 140),
    ("a-odd", 11): (2842, 326),
    ("a-even", 16): (11419, 1134),
}


@pytest.mark.parametrize(
    "name,parity,gate",
    [
        ("a-odd", "odd", 13),
        ("a-even", "even", 18),
        ("square-power-odd", "odd", 11),
        ("square-power-even", "even", 12),
        ("generalized-odd", "odd", 11),
        ("generalized-even", "even", 12),
    ],
)
def test_family_covers_all_long_words(name, parity, gate):
    res = includes(family_union(name), syntax_checker(parity, gate))
    assert res.holds, [s.render() for s in res.counterexample]
    assert res.explored == EXPLORED[name]
    assert (res.subset_steps, res.antichain_peak) == STEPS_AND_PEAK[name, gate]


@pytest.mark.parametrize(
    "name,parity,gate,explored,value",
    [
        ("a-odd", "odd", 11, 587, 1550),
        ("a-even", "even", 16, 1849, 55328),
    ],
)
def test_family_misses_a_word_below_its_gate(name, parity, gate, explored, value):
    res = includes(family_union(name), syntax_checker(parity, gate))
    assert not res.holds
    assert res.explored == explored
    assert (res.subset_steps, res.antichain_peak) == STEPS_AND_PEAK[name, gate]
    assert unfold(res.counterexample) == value


@pytest.mark.parametrize(
    "name,parity,gate,explored,value",
    [
        ("a-odd", "odd", 11, 150, 1550),
        ("a-even", "even", 16, 773, 55328),
    ],
)
def test_quotient_misses_the_same_word_below_the_gate(name, parity, gate, explored, value):
    # a container with the same language keeps the shortlex-least counterexample
    res = includes(quotient(family_union(name)).machine, syntax_checker(parity, gate))
    assert not res.holds
    assert res.explored == explored
    assert unfold(res.counterexample) == value


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_proof_machine_accepts_what_the_union_accepts(name):
    runtime = family_runtime(name)
    parity = runtime.profiles[0].parity
    for n in (13, 15) if parity == "odd" else (12, 14):
        expected = accept_set(runtime.union, parity, n)
        assert expected
        assert accept_set(runtime.proof_machine, parity, n) == expected


def test_manifest_shape():
    profiles = family_profiles("a-odd")
    assert {p.parity for p in profiles} == {"odd"}
    assert len(profiles) == 13
    labels = [p.label for p in profiles]
    assert labels[0] == "A(1,1,1)"
    assert "B(1,1,1,2)" in labels
    with pytest.raises(ValueError):
        family_profiles("no-such-family")
    assert set(FAMILY_NAMES) == {
        "a-odd",
        "a-even",
        "square-power-odd",
        "square-power-even",
        "generalized-odd",
        "generalized-even",
    }


def test_edge_annotations_route_to_known_sites():
    for name in ("a-odd", "generalized-even", "square-power-odd"):
        runtime = family_runtime(name)
        for (profile, nfa), start in zip(member_machines(runtime), runtime.starts):
            seen = 0
            for src, sym_id, dst in nfa.walk():
                data = runtime.edge_record(start + src, sym_id, start + dst)
                assert data is not None
                guesses, inj_lo, inj_hi = data
                assert len(guesses) == sum(
                    1 for s in profile.summands if s.count
                )
                assert 0 <= inj_lo + inj_hi <= profile.max_powers
                for records, summand in zip(
                    guesses, (s for s in profile.summands if s.count)
                ):
                    for site, value in records:
                        assert site in ("lo", "hi", "top")
                        assert 0 <= value <= summand.count
                seen += 1
            assert seen == nfa.num_transitions()


def test_decoding_an_edge_the_union_lacks_raises():
    runtime = family_runtime("generalized-odd")
    union = runtime.union
    # an edge into a member's accepting state; every member has one, and
    # they all have the same walk state
    src, sym_id, dst = next(e for e in union.walk() if e[2] in union.final)
    owner = runtime.profile_at(dst)
    elsewhere = next(q for q in union.final if runtime.profile_at(q) is not owner)
    missing = next(s for s in range(len(union.alphabet)) if s not in union.transitions[src])
    for edge in (
        (src, missing, dst),
        (src, sym_id, elsewhere),
        (src, sym_id, src),
        (src, sym_id, union.num_states),
        (-1, sym_id, dst),
    ):
        with pytest.raises(RuntimeError, match="decodes to 0 guess records"):
            runtime.edge_record(*edge)
    assert runtime.edge_record(src, sym_id, dst)


def test_decoding_an_edge_with_two_guess_records_raises(monkeypatch):
    expand = lemma_machines._ShapeTable.expand

    def with_twins(self, node):
        moves, records = expand(self, node)
        return moves + moves, records + [rec + ("twin",) for rec in records]

    runtime = lemma_machines.FamilyRuntime(family_profiles("generalized-odd"))
    monkeypatch.setattr(lemma_machines._ShapeTable, "expand", with_twins)
    with pytest.raises(RuntimeError, match="decodes to 2 guess records"):
        runtime.edge_record(*next(runtime.union.walk()))


UNION_STATES = {
    "a-odd": 2856,
    "a-even": 1461,
    "square-power-odd": 579,
    "square-power-even": 1552,
    "generalized-odd": 312,
    "generalized-even": 1639,
}


@pytest.mark.parametrize("name", sorted(UNION_STATES))
def test_family_union_of_trimmed_members_is_trim(name):
    runtime = family_runtime(name)
    combined = family_union(name)
    assert combined is runtime.union and family_runtime(name) is runtime
    assert combined.num_states == UNION_STATES[name]
    # every state has a path to a final state and is reached from an
    # initial one
    every_state = list(range(combined.num_states))
    assert reference_live(combined.transitions, combined.final) == frozenset(every_state)
    reached, stack = set(combined.initial), list(combined.initial)
    while stack:
        for dsts in combined.transitions[stack.pop()].values():
            stack += [d for d in dsts if d not in reached]
            reached.update(dsts)
    assert sorted(reached) == every_state
    # the member offsets partition the union's states in member order
    for (profile, nfa), start in zip(member_machines(runtime), runtime.starts):
        for q in (start, start + nfa.num_states - 1):
            assert runtime.profile_at(q) is profile


# sha256 over each family's union and the label of the member that owns
# each union state; the first 16 hex digits.  Any change to state
# numbering, transitions, initial or final sets, the guess records decoded
# for the edges or state ownership moves them.  Members that accept no word
# own no state, so dropping them from the families left these as they were.
GOLDEN_UNIONS = {
    "a-odd": "223639e16ebc5baf",
    "a-even": "75a91d7d9511b1fc",
    "square-power-odd": "4f0cf59ceb05997c",
    "square-power-even": "d064d4049f831c5a",
    "generalized-odd": "bc763a5a190ccfc6",
    "generalized-even": "416857906f30e7be",
}
# sha256 over each member's label and machine, in family order
GOLDEN_MEMBERS = {
    "a-odd": "8f847ecceca91897",
    "a-even": "9721015a739dee70",
    "square-power-odd": "a47ed53b1a060897",
    "square-power-even": "d79f975e06936b9b",
    "generalized-odd": "8ce488853495a50d",
    "generalized-even": "b8f35201aa2eb793",
}


def machine_bytes(nfa, runtime, start):
    """``nfa`` is the union or a member starting at union state ``start``."""
    return repr(
        (
            nfa.num_states,
            sorted(nfa.initial),
            sorted(nfa.final),
            [sorted(row.items()) for row in nfa.transitions],
            sorted(
                ((src, sym, dst), runtime.edge_record(start + src, sym, start + dst))
                for src, sym, dst in nfa.walk()
            ),
        )
    ).encode()


def union_digest(runtime):
    digest = hashlib.sha256(machine_bytes(runtime.union, runtime, 0))
    owners = [runtime.profile_at(q).label for q in range(runtime.union.num_states)]
    digest.update(repr(owners).encode())
    return digest.hexdigest()[:16]


def members_digest(runtime):
    digest = hashlib.sha256()
    for (profile, nfa), start in zip(member_machines(runtime), runtime.starts):
        digest.update(profile.label.encode())
        digest.update(machine_bytes(nfa, runtime, start))
    return digest.hexdigest()[:16]


def family_digests(runtime):
    return union_digest(runtime), members_digest(runtime)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_family_machines_match_golden_digests(name):
    assert family_digests(family_runtime(name)) == (GOLDEN_UNIONS[name], GOLDEN_MEMBERS[name])


def node_key(runtime, q):
    """The (pos, slots, used) node of union state q, or None for a member's
    accept state, whose node is -1."""
    node = runtime.states[q][0]
    return runtime._tables[runtime.profile_at(q)].node_keys[node] if node >= 0 else None


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_members_move_in_lockstep_with_the_minimal_checker(name):
    # the position of a uniform node is a state of the minimal syntax
    # checker, and every move of a member steps the checker on the same
    # letter, so each member's language lies inside the checker's
    runtime = family_runtime(name)
    parity = runtime.profiles[0].parity
    checker = syntax_checker(parity, LOOP_MIN[parity])
    # the accept state takes the layout's last position
    last = len(fold_layout(parity, LOOP_MIN[parity], True)) - 1
    position = [
        last if key is None else key[0]
        for key in (node_key(runtime, q) for q in range(runtime.union.num_states))
    ]
    assert {position[q] for q in runtime.union.initial} <= checker.initial
    for src, sym, dst in runtime.union.walk():
        assert position[dst] in checker.transitions[position[src]].get(sym, ())
        # only the accept state sits at the checker's final state
        assert (dst in runtime.union.final) == (position[dst] in checker.final)
        assert (dst in runtime.union.final) == (runtime.states[dst] == (-1, 0, 0))


# member totals as generated, before trim drops the dead states
GENERATED = {
    "a-odd": (5230, 54648),
    "a-even": (1895, 14657),
    "square-power-odd": (1137, 9317),
    "square-power-even": (2253, 18413),
    "generalized-odd": (530, 4238),
    "generalized-even": (2788, 22160),
}


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_generated_counts_cover_the_untrimmed_members(name):
    runtime = family_runtime(name)
    states, transitions = GENERATED[name]
    assert (runtime.generated_states, runtime.generated_transitions) == (states, transitions)
    assert states > runtime.union.num_states
    assert transitions > runtime.union.num_transitions()


# -- the build against a reference pipeline ---------------------------------
#
# The reference walks a member into dict-of-set rows with the shape table's
# moves and landing rule, keeps its live states by a frozenset closure and
# writes them into the union through a dict remap, one sorted successor
# tuple per symbol.  It shares no code with the runtime's flat edge lists,
# predecessor lists and list remap.


def reference_walk(table, carry):
    """A member's rows (symbol id -> set of successor ids, symbols in first
    landing order), the walk state of each id and the accept state's id."""
    states = [(0, 0, carry)]
    ids = {states[0]: 0}
    rows = [{}]
    work = [0]
    moves_of = {}
    while work:
        q = work.pop()
        node = states[q][0]
        if node < 0:
            continue
        if node not in moves_of:
            moves_of[node] = table.expand(node)[0]
        for landing in table.landings(moves_of[node], states[q], carry):
            if landing is None:
                continue
            sym, dst = landing
            if dst not in ids:
                ids[dst] = len(states)
                states.append(dst)
                rows.append({})
                work.append(ids[dst])
            rows[q].setdefault(sym, set()).add(ids[dst])
    return rows, states, ids.get((-1, 0, 0))


def reference_live(rows, targets):
    """The states with a path into ``targets``: grown a layer at a time
    until no state outside has an edge into it."""
    live = frozenset(targets)
    while True:
        layer = frozenset(
            q
            for q, row in enumerate(rows)
            if q not in live and any(not live.isdisjoint(dsts) for dsts in row.values())
        )
        if not layer:
            return live
        live |= layer


def reference_build(profiles):
    """The union rows as (symbol, successors) lists, with the walk states,
    starts, initial and final states and generated totals of a runtime."""
    tables = lemma_machines._shape_tables(profiles)
    rows, states, starts, initial, final = [], [], [], [], []
    generated_states = generated_transitions = 0
    for p in profiles:
        raw, walked, accept = reference_walk(tables[p], p.carry)
        generated_states += len(raw)
        generated_transitions += sum(len(dsts) for row in raw for dsts in row.values())
        live = sorted(reference_live(raw, () if accept is None else (accept,)))
        offset = len(rows)
        remap = {q: offset + k for k, q in enumerate(live)}
        for q in live:
            row = []
            for sym, dsts in raw[q].items():
                kept = sorted(remap[d] for d in dsts if d in remap)
                if kept:
                    row.append((sym, tuple(kept)))
            rows.append(row)
        if live:
            initial.append(offset)
            final.append(remap[accept])
        starts.append(offset)
        states += [walked[q] for q in live]
    return {
        "rows": rows,
        "states": tuple(states),
        "starts": tuple(starts),
        "initial": frozenset(initial),
        "final": frozenset(final),
        "generated": (generated_states, generated_transitions),
    }


def built(runtime):
    union = runtime.union
    return {
        "rows": [list(row.items()) for row in union.transitions],
        "states": runtime.states,
        "starts": runtime.starts,
        "initial": union.initial,
        "final": union.final,
        "generated": (runtime.generated_states, runtime.generated_transitions),
    }


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_runtimes_match_the_reference_build(name):
    for runtime in (family_runtime(name), cover_runtime(name)):
        assert built(runtime) == reference_build(runtime.profiles)


# (parity, summands, carry, max powers, fixed source length or None); the
# two equal summands give nodes with identical moves, which land alike
WALKED_SHAPES = [
    ("odd", (Summand(1, 1), Summand(3, 1), Summand(5, 1)), 1, 0, None),
    ("odd", (Summand(1, 1), Summand(1, 1)), 1, 0, None),
    ("even", (Summand(2, 1, "free"), Summand(4, 1)), 1, 2, None),
    ("odd", (Summand(1, 1), Summand(3, 1)), 1, 0, 9),
    ("even", (Summand(2, 3), Summand(4, 1)), 2, 0, 12),
]


@pytest.mark.parametrize("parity, summands, carry, max_powers, n", WALKED_SHAPES)
def test_walked_machines_match_the_reference_walk(parity, summands, carry, max_powers, n):
    if n is None:
        nfa = uniform_machine(parity, summands, carry, max_powers)
    else:
        nfa = fixed_machine(parity, n, summands, carry, max_powers)
    rows, _, accept = reference_walk(_ShapeTable(parity, summands, max_powers, n), carry)
    assert [list(row.items()) for row in nfa.transitions] == [
        [(sym, tuple(sorted(dsts))) for sym, dsts in row.items()] for row in rows
    ]
    assert nfa.initial == {0}
    assert nfa.final == (set() if accept is None else {accept})


# -- accept sets against the frozenset simulator ---------------------------

# (summands, carry, max powers) per parity, each fitting the shortest folds
# (5 bits odd, 6 bits even), whose tag runs are truncated, and accepting
# some value at every length from there to 14
FIXED_SHAPES = {
    "squares": {
        "odd": ((Summand(1, 1), Summand(3, 1)), 1, 0),
        "even": ((Summand(2, 3), Summand(4, 1)), 1, 0),
    },
    "free-halves-and-powers": {
        "odd": ((Summand(-1, 1, "zero"), Summand(1, 1, "free"), Summand(3, 1, "free")), 1, 1),
        "even": ((Summand(2, 1, "free"), Summand(4, 1)), 1, 2),
    },
}
ACCEPT_SET_CASES = [(shape, n) for shape in FIXED_SHAPES for n in range(5, 15)] + [
    (name, n) for name in FAMILY_NAMES for n in ((11, 13) if name.endswith("odd") else (12, 14))
]


@pytest.mark.parametrize("machine,n", ACCEPT_SET_CASES)
def test_accept_set_matches_frozenset_simulation(machine, n):
    # Nfa.accepts steps frozensets of states and shares no code with the
    # bitset kernel that accept_set walks
    parity = "odd" if n % 2 else "even"
    if machine in FIXED_SHAPES:
        nfa = fixed_machine(parity, n, *FIXED_SHAPES[machine][parity])
    else:
        # the family's largest member
        nfa = max((m for _, m in member_machines(family_runtime(machine))), key=lambda m: m.num_states)
    expected = {v for v in range(1 << (n - 1), 1 << n) if nfa.accepts(fold(v).symbols)}
    assert expected
    assert accept_set(nfa, parity, n) == expected


@st.composite
def parity_machines(draw):
    """A random machine over a parity's folded alphabet, for a source length
    of 5 to 10 bits: several initial and final states, and dead states that
    no final state is reached from, which live states may step into."""
    n = draw(st.integers(5, 10))
    parity = "odd" if n % 2 else "even"
    alphabet = alphabet_for(parity)
    live, dead = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    transitions = []
    for q in range(live + dead):
        targets = st.integers(0, live + dead - 1) if q < live else st.integers(live, live + dead - 1)
        row = draw(st.lists(st.sets(targets, max_size=2), min_size=len(alphabet), max_size=len(alphabet)))
        transitions.append({sym_id: tuple(sorted(dsts)) for sym_id, dsts in enumerate(row) if dsts})
    initial = draw(st.frozensets(st.integers(0, live + dead - 1), min_size=2))
    final = draw(st.frozensets(st.integers(0, live - 1), min_size=2))
    return Nfa(alphabet, live + dead, initial, final, transitions), parity, n


@settings(max_examples=100)
@given(parity_machines())
def test_accept_set_matches_the_machine_on_every_value(case):
    # accept_set steps back from the final states; Nfa.accepts steps
    # frozensets forward from the initial ones
    nfa, parity, n = case
    expected = {v for v in range(1 << (n - 1), 1 << n) if nfa.accepts(fold(v).symbols)}
    assert accept_set(nfa, parity, n) == expected


def test_lengths_without_a_fold_layout_are_rejected():
    summands = {"odd": (Summand(1, 1),), "even": (Summand(4, 1),)}
    nfa = fixed_machine("odd", 5, summands["odd"], 0)
    for parity, n in (("odd", 12), ("even", 13), ("odd", 1), ("even", 2), ("even", 4)):
        with pytest.raises(ValueError, match="length"):
            accept_set(nfa, parity, n)
        with pytest.raises(ValueError, match="length"):
            fixed_machine(parity, n, summands[parity], 0)
    for value in (0, 1, 3, 8, 15):
        with pytest.raises(ValueError, match="length"):
            fold(value)


def test_accept_set_rejects_a_machine_of_the_other_parity():
    # letter ids come from the parity's table, so a machine that reads the
    # other parity's alphabet would be stepped on letters it does not know
    nfa = fixed_machine("odd", 11, (Summand(1, 1),), 0)
    with pytest.raises(ValueError, match="even folds"):
        accept_set(nfa, "even", 12)


# -- one shape table per summand shape --------------------------------------

# interned (pos, slots, used) nodes over the family's shape tables: one table
# per summand shape, shared by the members that differ only in seam carry
GENERATOR_NODES = {
    "a-odd": 332,
    "a-even": 154,
    "square-power-odd": 128,
    "square-power-even": 330,
    "generalized-odd": 31,
    "generalized-even": 241,
}


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_generator_nodes_count_each_shape_once(name):
    runtime = family_runtime(name)
    assert runtime.generator_nodes == GENERATOR_NODES[name]
    shapes = {(p.parity, p.summands, p.max_powers) for p in runtime.profiles}
    assert len(set(map(id, runtime._tables.values()))) == len(shapes) < len(runtime.profiles)


def member_bytes(runtime):
    """Each member's machine_bytes, with its states, by label.  Node ids
    follow a table's interning order, so each state is named by its node's
    (pos, slots, used) and its two carries."""
    stops = runtime.starts[1:] + (runtime.union.num_states,)
    return {
        profile.label: (
            machine_bytes(nfa, runtime, start),
            [(node_key(runtime, q), *runtime.states[q][1:]) for q in range(start, stop)],
        )
        for (profile, nfa), start, stop in zip(member_machines(runtime), runtime.starts, stops)
    }


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_members_do_not_depend_on_build_order(name):
    # the shared tables intern nodes in another order, which must not reach
    # a member's numbering, its states or the records decoded for its edges
    expected = member_bytes(family_runtime(name))
    reverse = family_profiles(name)[::-1]
    runtime = lemma_machines.FamilyRuntime(reverse)
    assert runtime.profiles == reverse
    assert member_bytes(runtime) == expected


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_members_do_not_depend_on_sharing_a_table(name, monkeypatch):
    def fresh_tables(profiles):
        return {p: _ShapeTable(p.parity, p.summands, p.max_powers, None) for p in profiles}

    shared = family_runtime(name)
    monkeypatch.setattr(lemma_machines, "_shape_tables", fresh_tables)
    runtime = lemma_machines.FamilyRuntime(family_profiles(name))
    assert len(set(map(id, runtime._tables.values()))) == len(runtime.profiles)
    assert runtime.generator_nodes > shared.generator_nodes
    assert member_bytes(runtime) == member_bytes(shared) and runtime.starts == shared.starts
    counts = (runtime.generated_states, runtime.generated_transitions)
    assert counts == (shared.generated_states, shared.generated_transitions)
    assert family_digests(runtime) == (GOLDEN_UNIONS[name], GOLDEN_MEMBERS[name])


@pytest.mark.parametrize("shape", sorted(FIXED_SHAPES))
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_fixed_members_on_one_table_match_one_member_builds(shape, parity):
    summands, _, max_powers = FIXED_SHAPES[shape][parity]
    carries = range(sum(s.count for s in summands) + max_powers, -1, -1)
    for n in range(5 if parity == "odd" else 6, 15, 2):
        table = _ShapeTable(parity, summands, max_powers, n)
        for carry in carries:
            alone = fixed_machine(parity, n, summands, carry, max_powers)
            assert lemma_machines._walked_machine(table, carry) == alone


# -- the covers verify proves on ---------------------------------------------

GATES = {family: (parity, gate) for family, parity, gate in TARGETS.values()}

# (explored, subset_steps, antichain_peak) of each whole family's proof search
# at its verify gate, so that kernel changes stay checked on the same searches
FAMILY_SEARCHES = {
    "a-odd": (157, 1005, 96),
    "a-even": (1305, 8927, 930),
    "square-power-odd": (1265, 7237, 546),
    "square-power-even": (3912, 25813, 2612),
    "generalized-odd": (36, 161, 14),
    "generalized-even": (74, 395, 36),
}

# the value of the shortlex-least counterexample once one cover member is
# dropped; generalized-even's cover has one member, and none is left
DROPPED = {
    "a-odd": {
        "A(1,1,1)": 4108, "A(2,1,1)": 6188, "A(2,1,2)": 6156, "A(1,2,1)": 4156,
        "A(1,2,2)": 5132, "B(1,1,1,1)": 4127, "B(1,1,1,2)": 4096, "A(2,2,2)": 6172,
        "B(2,1,1,1)": 6207, "B(2,1,1,2)": 6176, "B(2,1,1,3)": 7936,
    },
    "a-even": {
        "A(0,2,2,0,2)": 131184, "A(0,2,2,0,3)": 135168, "A(0,3,1,0,1)": 135232,
        "A(1,0,1,1,0)": 213112, "A(1,0,1,1,1)": 212992, "A(1,0,1,1,2)": 196608,
        "A(0,2,1,1,2)": 131198, "A(0,2,1,1,3)": 131072,
    },
    "square-power-odd": {"SP(2,0,1)": 1931, "SP(1,1,0)": 30844, "SP(1,1,1)": 1040, "SP(1,1,2)": 1728},
    "square-power-even": {
        "SP(0,1,0,0)": 2063, "SP(1,0,1,0)": 2572, "SP(1,0,1,1)": 2560,
        "SP(0,1,1,1)": 2048, "SP(0,1,1,2)": 8960,
    },
    "generalized-odd": {"G(0)": 1048, "G(1)": 1024},
    "generalized-even": {},
}


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_family_search_counts(name):
    parity, gate = GATES[name]
    res = includes(family_runtime(name).proof_machine, syntax_checker(parity, gate))
    assert res.holds
    assert (res.explored, res.subset_steps, res.antichain_peak) == FAMILY_SEARCHES[name]


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_cover_runtime_builds_the_cover_in_family_order(name):
    runtime = cover_runtime(name)
    order = [p.label for p in family_profiles(name)]
    labels = [p.label for p in runtime.profiles]
    assert labels == list(FAMILY_COVERS[name]) == sorted(labels, key=order.index)
    assert len(labels) < len(order)
    # each member is the one the whole family's union holds
    whole = dict(member_machines(family_runtime(name)))
    assert all(nfa == whole[profile] for profile, nfa in member_machines(runtime))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_every_cover_member_is_needed(name):
    parity, gate = GATES[name]
    checker = syntax_checker(parity, gate)
    cover = FAMILY_COVERS[name]
    found = {}
    for drop in cover:
        rest = select_profiles(name, tuple(label for label in cover if label != drop))
        if not rest:
            with pytest.raises(ValueError, match="one parity"):
                FamilyRuntime(rest)
            continue
        res = includes(FamilyRuntime(rest).proof_machine, checker)
        assert not res.holds, drop
        found[drop] = unfold(res.counterexample)
    assert found == DROPPED[name]


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_cover_union_accepts_every_value_at_the_gate(name):
    # the path kernel walks every word of the gate's length, with no
    # inclusion search, so this rests on other code than the proof
    parity, gate = GATES[name]
    accepted = accept_set(cover_runtime(name).union, parity, gate)
    assert accepted == set(range(1 << (gate - 1), 1 << gate))


def test_runtime_needs_profiles_of_one_parity():
    with pytest.raises(ValueError, match="one parity"):
        FamilyRuntime(())
    mixed = family_profiles("generalized-odd")[:1] + family_profiles("generalized-even")[:1]
    with pytest.raises(ValueError, match="one parity"):
        FamilyRuntime(mixed)


def test_an_unknown_cover_label_or_family_is_refused():
    with pytest.raises(ValueError, match=r"has no member G\(3\)"):
        select_profiles("generalized-odd", ("G(0)", "G(3)"))
    with pytest.raises(ValueError, match="unknown machine family"):
        cover_runtime("no-such-family")


def test_a_bare_label_string_is_refused():
    # a string is a collection of its characters, none of them a label
    with pytest.raises(ValueError, match="not the string 'A\\(1,1,1\\)'"):
        select_profiles("a-odd", "A(1,1,1)")
    assert [p.label for p in select_profiles("a-odd", ["A(1,1,1)"])] == ["A(1,1,1)"]


@pytest.mark.parametrize("offset, count", [(1, 1.5), (1, True), (1.0, 1), (False, 1), (1, "1")])
def test_summand_offset_and_count_must_be_ints(offset, count):
    with pytest.raises(ValueError, match="must be an int"):
        Summand(offset, count)


@pytest.mark.parametrize("carry", [1.0, True, "1"])
def test_seam_carry_must_be_an_int(carry):
    with pytest.raises(ValueError, match="seam carry must be an int"):
        uniform_machine("odd", (Summand(1, 1), Summand(3, 1)), carry)
    with pytest.raises(ValueError, match="seam carry must be an int"):
        fixed_machine("odd", 11, (Summand(1, 1), Summand(3, 1)), carry)


@pytest.mark.parametrize("max_powers", [-1, True, 1.0, "1"])
def test_power_budget_must_be_a_non_negative_int(max_powers):
    # -1 built one dead state, and a runtime on it an empty union; True ran as 1
    summands = (Summand(1, 1), Summand(3, 1))
    with pytest.raises(ValueError, match="max_powers must be an int >= 0"):
        uniform_machine("odd", summands, 0, max_powers)
    with pytest.raises(ValueError, match="max_powers must be an int >= 0"):
        fixed_machine("odd", 11, summands, 0, max_powers)
    with pytest.raises(ValueError, match="max_powers must be an int >= 0"):
        FamilyRuntime((Profile("odd", summands, 0, max_powers),))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_successor_tuples_increase(name):
    # the path search's greedy walk takes the first alive successor in a
    # tuple as the lowest, so the unions it walks keep them strictly
    # increasing, and so do the proof machines built from them
    machines = []
    for runtime in (family_runtime(name), cover_runtime(name)):
        machines += [runtime.union, runtime.proof_machine]
    for nfa in machines:
        for row in nfa.transitions:
            for dsts in row.values():
                assert all(a < b for a, b in zip(dsts, dsts[1:]))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_each_member_has_its_first_state_initial_and_one_final(name):
    # the least accepting run of such a union ends at the lowest reachable
    # final state, so the path search's backward pass from every final
    # state finds the run that a search towards that one state would
    for runtime in (family_runtime(name), cover_runtime(name)):
        union = runtime.union
        stops = runtime.starts[1:] + (union.num_states,)
        for start, stop in zip(runtime.starts, stops):
            inside = range(start, stop)
            assert [q for q in union.initial if q in inside] == [start]
            assert len([q for q in union.final if q in inside]) == 1
            for q in inside:
                assert all(d in inside for dsts in union.transitions[q].values() for d in dsts)
