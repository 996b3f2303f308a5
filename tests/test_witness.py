"""Decomposition extraction, table path and machine path."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsquares import automata, cli, witness
from binsquares.automata import accepting_path
from binsquares.folding import fold
from binsquares.lemma_machines import FAMILY_COVERS, cover_runtime, family_runtime
from binsquares.numberforms import GroundSetKind, is_binary_square
from binsquares.oracle import sumset_table
from binsquares.witness import (
    InvalidInput,
    NotRepresentable,
    decompose,
    decompose_generalized,
    decompose_square_power,
    render_part,
)

EXCEPTIONS_TAIL = (599, 608, 613, 620, 638, 653, 671, 686)


def test_first_guaranteed_value():
    d = decompose(687)
    assert d.values() == (627, 54, 3, 3)
    assert len(d.parts) == 4
    assert d.profile == ""
    assert sum(d.values()) == 687


def test_exceptions_raise():
    for n in EXCEPTIONS_TAIL:
        with pytest.raises(NotRepresentable):
            decompose(n)


def test_below_range_but_representable_rejected():
    with pytest.raises(InvalidInput):
        decompose(100)
    with pytest.raises(InvalidInput):
        decompose(-3)


def test_table_machine_boundary():
    low = decompose((1 << 17) - 1)
    assert low.profile == "" and low.states_visited == 0
    high = decompose(1 << 17)
    assert high.profile and high.states_visited > 0
    assert sum(high.values()) == 1 << 17


@pytest.mark.parametrize(
    "fn, floor",
    [
        (decompose, witness._MACHINE_FLOOR),
        (decompose_square_power, witness._SHORT_FLOOR),
        (decompose_generalized, witness._SHORT_FLOOR),
    ],
    ids=["squares4", "square-power", "generalized"],
)
def test_machine_floors_stand_on_the_verified_gates(monkeypatch, fn, floor):
    # a family's verify proves it for source lengths from its gate up, so the
    # least machine-backed value of each parity must reach the gate of the
    # family it is sent to
    gates = {family: shortest for family, _, shortest in cli._VERIFY_TARGETS.values()}
    asked = []
    runtime = witness.cover_runtime
    monkeypatch.setattr(witness, "cover_runtime", lambda name: asked.append(name) or runtime(name))
    fn(floor - 1)
    assert asked == []
    for value in (floor, 1 << floor.bit_length()):
        fn(value)
        assert value.bit_length() >= gates[asked.pop()]
    assert asked == []


def test_machine_parts_match_profile_widths():
    rng = random.Random(31)
    for _ in range(24):
        bits = rng.randrange(18, 60)
        n_val = rng.randrange(1 << (bits - 1), 1 << bits)
        d = decompose(n_val)
        n = n_val.bit_length()
        allowed = {n - 1, n - 3, n - 5} if n % 2 else {n, n - 2, n - 4, n - 6}
        for v in d.values():
            if v:
                assert is_binary_square(v)
                assert v.bit_length() in allowed


def test_decompose_deterministic():
    n = (1 << 43) + 12345
    assert decompose(n) == decompose(n)


def test_small_range_agrees_with_oracle():
    table = sumset_table(GroundSetKind.BINARY_SQUARE, 1 << 17, max_k=4)
    rng = random.Random(6)
    for _ in range(150):
        n = rng.randrange(687, 1 << 17)
        d = decompose(n)
        assert sum(d.values()) == n
        assert table.contains(4, n)


# sha256 of small_path_lines(), pinned from the per-call level builder
SMALL_PATH_DIGEST = "7c4d2badd87c8cde856a2e4c4ed84b9801f9a009cb07c59e18ebb70beef579e5"


def small_path_lines():
    for v in range(687, 1 << 17, 61):
        yield f"squares4 {v} {decompose(v).parts}"
    for mode, fn in (
        ("square-power", decompose_square_power),
        ("generalized", decompose_generalized),
    ):
        for n in range(1 << 10):
            try:
                parts = fn(n).parts
            except NotRepresentable:
                parts = "NotRepresentable"
            yield f"{mode} {n} {parts}"


def test_small_path_witnesses_are_pinned():
    text = "\n".join(small_path_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == SMALL_PATH_DIGEST


def test_square_power_basics():
    assert decompose_square_power(0).parts == ()
    d = decompose_square_power(7)
    assert sum(d.values()) == 7
    d = decompose_square_power((1 << 61) + (1 << 13))
    roles = [r for _, r in d.parts]
    assert roles.count("BinarySquare") <= 2 and roles.count("PowerOfTwo") <= 2


def test_square_power_exhaustive_small():
    # spans the table/machine handoff at 2^10
    for n in range(1500):
        d = decompose_square_power(n)
        roles = [r for _, r in d.parts]
        assert roles.count("BinarySquare") <= 2
        assert roles.count("PowerOfTwo") <= 2
        assert all(v for v in d.values())


def test_generalized_basics():
    assert decompose_generalized(8).values() == (5, 3, 0)
    for n in (1, 2, 4, 7):
        with pytest.raises(NotRepresentable):
            decompose_generalized(n)
    for n in (0, 3, 5, 6):
        assert sum(decompose_generalized(n).values()) == n
    d = decompose_generalized(1 << 63)
    assert len(d.parts) == 3 and sum(d.values()) == 1 << 63


def test_generalized_always_three_parts():
    rng = random.Random(32)
    for _ in range(20):
        bits = rng.randrange(4, 200)
        n = rng.randrange(1 << (bits - 1), 1 << bits)
        if n in (4, 7):
            continue
        d = decompose_generalized(n)
        assert len(d.parts) == 3
        assert sum(d.values()) == n


def test_random_battery_all_modes():
    rng = random.Random(5)
    for _ in range(15):
        bits = rng.randrange(18, 400)
        n = rng.randrange(1 << (bits - 1), 1 << bits)
        for fn in (decompose, decompose_square_power, decompose_generalized):
            d = fn(n)  # verify() runs inside each constructor
            assert sum(d.values()) == n
            assert d.states_visited > 0


def test_render_part():
    assert render_part(221, "BinarySquare") == "221 = 11011101 = (1101)(1101)"
    assert render_part(9, "GeneralizedBinarySquare") == "9 = 1001 = (001)(001)"
    assert render_part(32, "PowerOfTwo") == "32 = 100000"
    assert render_part(0, "BinarySquare") == "0"


def test_render_part_of_large_decompositions():
    def by_division(value):
        """The half width found by trial division, the least w with value =
        a(2**w + 1) and a < 2**w, and that half."""
        for w in range(1, value.bit_length() + 1):
            a, rest = divmod(value, (1 << w) + 1)
            if rest == 0 and a < 1 << w:
                return w, a

    value = (1 << 1000) + 12345
    for dec in (decompose(value), decompose_generalized(value)):
        for part, role in dec.parts:
            if part:
                width, a = by_division(part)
                half = format(a, "b").zfill(width)
                assert render_part(part, role) == f"{part} = {part:b} = ({half})({half})"


def test_readme_example_is_exact():
    d = decompose(2**100 + 12345)
    assert d.values() == (
        1043170806433179750220291545750,
        178263365657095076244822687744,
        46216428137954575031588984227,
        0,
    )


# -- path search against a dict-per-layer reference -------------------------

MODES = {
    "squares4": (decompose, "a"),
    "square-power": (decompose_square_power, "square-power"),
    "generalized": (decompose_generalized, "generalized"),
}


def reference_accepting_path(nfa, ids):
    """Simulate the word one dict per position, each mapping a state to the
    first state of the previous position that reached it, then follow those
    parents back from the lowest final state of the last position."""
    layers = [{s: -1 for s in sorted(nfa.initial)}]
    visited = len(layers[0])
    for sid in ids:
        nxt = {}
        for st_ in layers[-1]:
            for d in sorted(nfa.transitions[st_].get(sid, ())):
                nxt.setdefault(d, st_)
        if not nxt:
            return None, visited, max(map(len, layers))
        layers.append(nxt)
        visited += len(nxt)
    widest = max(map(len, layers))
    finals = sorted(st_ for st_ in layers[-1] if st_ in nfa.final)
    if not finals:
        return None, visited, widest
    states = [finals[0]]
    for layer in reversed(layers[1:]):
        states.append(layer[states[-1]])
    states.reverse()
    return states, visited, widest


def family_of(prefix, bits):
    return f"{prefix}-{'odd' if bits % 2 else 'even'}"


# sha256 of machine_path_lines(), pinned when decompositions moved from the
# whole family unions to the cover unions: every one of the 90 lines states
# fewer visited states, and 11 of them another member and other parts
MACHINE_PATH_DIGEST = "d94e85073710dc5713844313d78d58aa5f6d3059a83c424e23ad7d2064618119"


def machine_path_lines():
    rng = random.Random(2001)
    for mode, (fn, _) in MODES.items():
        for _ in range(30):
            bits = rng.randrange(18, 2002)
            value = rng.randrange(1 << (bits - 1), 1 << bits)
            d = fn(value)
            yield repr((mode, value, d.parts, d.profile, d.states_visited, d.frontier_max))


def test_machine_path_witnesses_are_pinned():
    text = "\n".join(machine_path_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == MACHINE_PATH_DIGEST


@st.composite
def folded_inputs(draw):
    """A family and a word for it: the folded word of a random value, or
    now and then a random symbol string, which the family mostly rejects."""
    mode = draw(st.sampled_from(sorted(MODES)))
    bits = draw(st.integers(18, 600))
    runtime = family_runtime(family_of(MODES[mode][1], bits))
    if draw(st.integers(0, 4)):
        value = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        ids = fold(value).ids
    else:
        size = len(runtime.union.alphabet)
        ids = tuple(draw(st.lists(st.integers(0, size - 1), max_size=40)))
    return runtime, ids


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(folded_inputs())
def test_kernel_path_search_matches_dict_reference(case):
    runtime, ids = case
    path = accepting_path(runtime.kernel, ids)
    states, visited, widest = reference_accepting_path(runtime.union, ids)
    assert path.states == states
    assert path.visited == visited
    if states is not None:
        assert path.frontier_max == widest


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.integers(18, 5000), st.data())
def test_decompositions_verify_in_every_mode(bits, data):
    value = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    for fn, _ in MODES.values():
        d = fn(value)
        d.verify()
        assert sum(d.values()) == value
        assert d.profile and 0 < d.frontier_max <= d.states_visited


MACHINE_FLOORS = {
    "squares4": witness._MACHINE_FLOOR,
    "square-power": witness._SHORT_FLOOR,
    "generalized": witness._SHORT_FLOOR,
}


@pytest.mark.parametrize("parity", [1, 0], ids=["odd", "even"])
@pytest.mark.parametrize("mode", sorted(MODES))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cover_members_decompose_from_the_floor_up(mode, parity, data):
    # the least machine-backed value of the parity, then a drawn one
    fn, prefix = MODES[mode]
    floor = MACHINE_FLOORS[mode]
    least = floor if floor.bit_length() % 2 == parity else 1 << floor.bit_length()
    bits = data.draw(st.integers(floor.bit_length(), 4001).filter(lambda b: b % 2 == parity))
    drawn = data.draw(st.integers(max(1 << (bits - 1), floor), (1 << bits) - 1))
    for value in (least, drawn):
        d = fn(value)
        assert sum(d.values()) == value
        assert d.profile in FAMILY_COVERS[family_of(prefix, value.bit_length())]


def test_frontier_max_is_the_widest_layer():
    value = (1 << 300) + 987654321
    for fn, prefix in MODES.values():
        d = fn(value)
        runtime = cover_runtime(family_of(prefix, value.bit_length()))
        ids = fold(value).ids
        _, visited, widest = reference_accepting_path(runtime.union, ids)
        assert (d.states_visited, d.frontier_max) == (visited, widest)
    assert decompose((1 << 17) - 1).frontier_max == 0


def test_machine_results_time_their_stages():
    value = (1 << 300) + 987654321
    for fn, _ in MODES.values():
        d = fn(value)
        assert list(d.stage_seconds) == ["fold", "path", "replay", "verify"]
        assert min(d.stage_seconds.values()) >= 0 and d.stage_seconds["path"] > 0
        # the timings take no part in comparing results
        assert d == fn(value)
    assert decompose((1 << 17) - 1).stage_seconds == {}


def _fresh_kernels(monkeypatch, families):
    """Drop the families' cached kernels for the test, so that the next
    decomposition compiles new ones under the module's caps as they stand;
    the old kernels come back at teardown."""
    for name in families:
        runtime = cover_runtime(name)
        runtime.kernel  # noqa: B018 -- cached, so that teardown restores it
        monkeypatch.delitem(runtime.__dict__, "kernel")
    return [cover_runtime(name) for name in families]


def test_path_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(automata, "_MEMO_LIMIT", 16)
    families = [family_of(prefix, 300) for _, prefix in MODES.values()]
    runtimes = _fresh_kernels(monkeypatch, families)
    rng = random.Random(300)
    for _ in range(60):
        value = rng.randrange(1 << 299, 1 << 300)
        for fn, _ in MODES.values():
            fn(value).verify()
    for runtime in runtimes:
        memo = runtime.kernel._memo
        assert runtime.kernel.memo_hits > 0
        assert 0 < sum(map(len, memo)) <= 16


def test_a_repeated_decomposition_is_answered_from_the_memo(monkeypatch):
    value = (1 << 300) + 987654321
    _fresh_kernels(monkeypatch, [family_of("a", value.bit_length())])
    first, second = decompose(value), decompose(value)
    # every forward and every backward step of the second search repeats one
    # of the first, and the memo holds them all
    assert second.path_memo_hits == 2 * len(fold(value).ids)
    assert first.path_memo_hits < second.path_memo_hits
    assert first == second
    assert decompose((1 << 17) - 1).path_memo_hits is None
