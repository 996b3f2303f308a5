"""Top-level acceptance checks, one test per shipped claim.

Each test prints a single PASS/FAIL line naming the claim it gates, so a
verbose run doubles as a release checklist.
"""

import itertools
import json
import random
import statistics
from fractions import Fraction
from pathlib import Path

from binsquares import cli
from binsquares.automata import Alphabet, NfaBuilder, PathKernel, Symbol, includes
from binsquares.folding import fold, unfold
from binsquares.lemma_machines import accept_set, cover_runtime, family_profiles, uniform_machine
from binsquares.numberforms import GroundSetKind, ground_set_upto
from binsquares.oracle import (
    congruence_two_solutions,
    density_floor_holds,
    four_squares_counts,
    lower_density_estimate,
    optimality_check,
    profile_sum_mask,
    residue_formula,
    square_power_mask,
    sumset_table,
    sumset_uniqueness,
)
from binsquares.witness import decompose

DATA = Path(__file__).parent / "data"


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_criterion_01_exception_list(capsys):
    code, out, _ = run_cli(capsys, "exceptions", "--bound", "131072")
    golden = (DATA / "four_squares_exceptions.txt").read_text()
    lines = out.splitlines()
    ok = code == 0 and out == golden and len(lines) == 56 and lines[-1] == "686"
    report(1, ok, "56 non-representable values, byte-identical to golden list")


def test_criterion_02_representability_counts():
    counts = four_squares_counts(1 << 17)
    ok = counts == [256, 19542, 95422, 131016]
    report(2, ok, f"counts below 2^17 for 1..4 summands: {counts}")


def test_criterion_03_four_square_inclusions(capsys):
    rows = {}
    for target, reference in (("odd-squares", 2258), ("even-squares", 1343)):
        code, out, _ = run_cli(capsys, "--json", "verify", target)
        record = json.loads(out)
        rows[target] = (code, record, reference)
    ok = all(code == 0 and rec["holds"] for code, rec, _ in rows.values())
    detail = "; ".join(
        f"{t} holds={rec['holds']} states={rec['states']} (reference {ref})"
        for t, (_, rec, ref) in rows.items()
    )
    report(3, ok, detail)


def test_criterion_04_crossvalidation_tests(capsys):
    cases = [("8", "4:3,2:4"), ("10", "4:2,2:4"), ("10", "4:3,2:3")]
    sizes = []
    ok = True
    for length, profiles in cases:
        code, out, _ = run_cli(
            capsys,
            "--json",
            "crossvalidate",
            "--length",
            length,
            "--profiles",
            profiles,
        )
        record = json.loads(out)
        ok = ok and code == 0 and record["symmetric_difference"] == 0
        sizes.append(record["machine_values"])
    report(4, ok, f"three cross-validation runs match exactly, sizes {sizes}")


def test_criterion_05_per_profile_exactness():
    groups: dict = {}
    for p in family_profiles("a-odd"):
        nfa = uniform_machine(p.parity, p.summands, p.carry, p.max_powers)
        groups.setdefault(p.summands, []).append(nfa)
    checked = 0
    ok = True
    for length in (13, 15):
        low = 1 << (length - 1)
        for summands, machines in groups.items():
            got = set().union(*(accept_set(m, "odd", length) for m in machines))
            mask = profile_sum_mask(
                [(length - s.offset, s.count) for s in summands], 1 << length
            )
            want = {v for v in range(low, 1 << length) if mask >> v & 1}
            ok = ok and got == want
            checked += 1
    report(5, ok, f"{checked} carry-union profiles exact at lengths 13 and 15")


def test_criterion_06_mixed_and_relaxed_families(capsys):
    holds = []
    for target in (
        "square-power-odd",
        "square-power-even",
        "generalized-odd",
        "generalized-even",
    ):
        code, out, _ = run_cli(capsys, "--json", "verify", target)
        holds.append(code == 0 and json.loads(out)["holds"])
    mixed = square_power_mask(512) == (1 << 512) - 1
    table = sumset_table(GroundSetKind.GENERALIZED_BINARY_SQUARE, 64, 3)
    relaxed = all(table.contains(3, n) for n in range(8, 64)) and not any(
        table.contains(3, n) for n in (1, 2, 4, 7)
    )
    ok = all(holds) and mixed and relaxed
    report(
        6,
        ok,
        f"four inclusions hold={holds}, thresholds 512/{'ok' if mixed else 'BAD'} "
        f"and 8..63/{'ok' if relaxed else 'BAD'}",
    )


def test_criterion_07_power_of_two_optimality():
    table = optimality_check(25)
    representable = {n: reps for n, reps in table.items() if reps}
    ok = set(representable) == {9} and sorted(representable.get(9, [])) == [
        (238, 238, 36),
        (255, 221, 36),
    ]
    report(7, ok, f"among odd n <= 25 only n=9 splits: {representable}")


def test_criterion_08_residue_rewriting():
    checked = 0
    ok = True
    for m in range(2, 17):
        modulus = (1 << m) + 1
        for g in range(m // 2 + 1, m):
            for c in range(1 << (g - 1), 1 << g):
                expected = c * ((1 << g) + 1) % modulus
                ok = ok and residue_formula(m, g, c) % modulus == expected
                checked += 1
    pairs = congruence_two_solutions(16)
    ok = ok and pairs == [(4, 3)]
    report(8, ok, f"{checked} residue rewritings agree; two-solution pairs {pairs}")


def test_criterion_09_uniqueness_and_density():
    unique = all(sumset_uniqueness(n) == 1 << (2 * n - 1) for n in range(1, 11))
    floor = density_floor_holds(14, 1 << 17, Fraction(1, 40))
    estimate = lower_density_estimate(1 << 20)
    banded = Fraction(12, 100) <= estimate <= Fraction(16, 100)
    pinned = estimate == Fraction(40298, 282155)
    ok = unique and floor and banded and pinned
    report(
        9,
        ok,
        f"cross-length sums distinct to n=10, density >= 1/40 on [14, 2^17), "
        f"liminf estimate {estimate} ~ {float(estimate):.4f} in [0.12, 0.16]",
    )


def test_criterion_10_exactly_four_positive_list(capsys):
    code, out, _ = run_cli(
        capsys, "exceptions", "--bound", "131072", "--exact-four-positive"
    )
    golden = (DATA / "exact_four_positive_exceptions.txt").read_text()
    lines = out.splitlines()
    ok = code == 0 and out == golden and len(lines) == 112 and lines[-1] == "1772"
    report(10, ok, "112 exactly-four-positive holdouts match the golden list")


def _widest_backward_mask(union) -> tuple[int, int]:
    """The number of masks that stepping back from the final states on every
    symbol reaches, and the widest of them: no backward mask of a path
    search over any word is wider.  A kernel of its own leaves the
    runtime's memo counts alone."""
    kernel = PathKernel(union)
    seen, stack = {kernel.final}, [kernel.final]
    while stack:
        mask = stack.pop()
        for sym_id in range(len(union.alphabet)):
            before = kernel.back(mask, sym_id)
            if before not in seen:
                seen.add(before)
                stack.append(before)
    return len(seen), max(mask.bit_count() for mask in seen)


def test_criterion_11_witness_extraction_scaling():
    # extraction is linear in the bit length when the path search steps one
    # mask per position and no mask grows past a width fixed by the machine:
    # the widest mask the backward subset construction of each parity's
    # cover reaches bounds every value's widest mask, and its number of
    # positions times that bounds the states visited
    subsets, bound = {}, {}
    for parity, family in ((1, "a-odd"), (0, "a-even")):
        subsets[parity], bound[parity] = _widest_backward_mask(cover_runtime(family).union)
    rng = random.Random(11)
    by_parity = {0: ([], []), 1: ([], [])}
    widest = {0: 0, 1: 0}
    bounded = True
    for count in range(208):
        length = rng.randrange(18, 401) if count < 200 else rng.randrange(4000, 4011)
        value = rng.randrange(1 << (length - 1), 1 << length)
        result = decompose(value)
        result.verify()
        positions = len(fold(value).ids)
        parity = length % 2
        bounded &= result.frontier_max <= bound[parity]
        bounded &= result.states_visited <= bound[parity] * (positions + 1)
        widest[parity] = max(widest[parity], result.frontier_max)
        if length <= 400:
            bits, visited = by_parity[parity]
            bits.append(value.bit_length())
            visited.append(result.states_visited)
    # the states visited follow the value as well as its length, so the
    # correlations are informational
    correlations = {
        parity: statistics.correlation(bits, visited)
        for parity, (bits, visited) in by_parity.items()
    }
    report(
        11,
        bounded,
        f"208 verified witnesses; widest mask odd {widest[1]} of at most {bound[1]} "
        f"({subsets[1]} backward subsets), even {widest[0]} of at most {bound[0]} "
        f"({subsets[0]}); states-vs-bits correlation odd {correlations[1]:.3f}, "
        f"even {correlations[0]:.3f}",
    )


def _random_machine(rng: random.Random, alphabet: Alphabet):
    builder = NfaBuilder(alphabet)
    states = rng.randrange(3, 6)
    for q in range(states):
        builder.state(q)
    builder.mark_initial(0)
    for q in range(states):
        if rng.random() < 0.4:
            builder.mark_final(q)
    for _ in range(rng.randrange(4, 14)):
        builder.add_edge(
            rng.randrange(states),
            rng.choice(alphabet.symbols),
            rng.randrange(states),
        )
    return builder.build()


def _language(nfa, max_len: int):
    words = set()
    for length in range(max_len + 1):
        for word in itertools.product(nfa.alphabet.symbols, repeat=length):
            if nfa.accepts(word):
                words.add(word)
    return words


def test_criterion_12_property_suites():
    rng = random.Random(12)
    alphabet = Alphabet([Symbol("x", (0,)), Symbol("y", (1,))])
    ok = True
    for _ in range(25):
        a, b = _random_machine(rng, alphabet), _random_machine(rng, alphabet)
        la, lb = _language(a, 5), _language(b, 5)
        verdict = includes(a, b)
        if verdict.holds:
            ok = ok and lb <= la
        else:
            word = verdict.counterexample
            ok = ok and b.accepts(word) and not a.accepts(word)

    for _ in range(200):
        value = rng.randrange(64, 1 << 24)
        word = fold(value)
        ok = ok and unfold(word.symbols) == value

    ground = ground_set_upto(GroundSetKind.BINARY_SQUARE, 300)
    table = sumset_table(GroundSetKind.BINARY_SQUARE, 300, 3)
    for k in range(1, 4):
        naive = {
            sum(combo)
            for combo in itertools.combinations_with_replacement(ground, k)
            if sum(combo) < 300
        }
        ok = ok and naive == {v for v in range(300) if table.contains(k, v)}
    report(12, ok, "inclusion verdicts, fold round-trips, and table sums agree")
