"""End-to-end checks of the command-line surface and its exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from binsquares import automata, cli, folding, lemma_machines, oracle, witness

GOLDEN = Path(__file__).parent / "data" / "four_squares_exceptions.txt"


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def records(text):
    return [json.loads(line) for line in text.splitlines()]


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "687")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "687 = 627 + 54 + 3 + 3"
    assert "  627 = 1001110011 = (10011)(10011)" in lines


def test_decompose_exception_exits_two(capsys):
    code, out, err = run(capsys, "decompose", "686")
    assert code == 2
    assert out == ""
    assert "686" in err


def test_decompose_negative_exits_three(capsys):
    code, _, err = run(capsys, "decompose", "--", "-4")
    assert code == 3
    assert "invalid input" in err


def test_decompose_json_matches_text(capsys):
    code, out, _ = run(capsys, "--json", "decompose", "687")
    assert code == 0
    (record,) = records(out)
    assert record["kind"] == "decompose"
    assert record["value"] == 687
    parts = [p["value"] for p in record["parts"]]
    assert parts == [627, 54, 3, 3]
    assert sum(parts) == 687

    code, text_out, _ = run(capsys, "decompose", "687")
    assert code == 0
    assert text_out.splitlines()[0] == "687 = " + " + ".join(map(str, parts))


def test_decompose_generalized_mode(capsys):
    code, out, _ = run(capsys, "--json", "decompose", "--mode", "generalized", "9")
    assert code == 0
    (record,) = records(out)
    assert sum(p["value"] for p in record["parts"]) == 9
    assert len(record["parts"]) == 3


def test_exceptions_byte_identical_to_golden(capsys):
    code, out, _ = run(capsys, "exceptions", "--bound", "131072")
    assert code == 0
    assert out == GOLDEN.read_text()


def test_exceptions_json_has_one_record_per_golden_line(capsys):
    code, out, _ = run(capsys, "--json", "exceptions", "--bound", "131072")
    assert code == 0
    expected = [int(line) for line in GOLDEN.read_text().splitlines()]
    assert records(out) == [
        {"kind": "exception", "value": value, "exact_four_positive": False}
        for value in expected
    ]


def test_exceptions_exact_four_positive_tail(capsys):
    code, out, _ = run(
        capsys, "exceptions", "--bound", "131072", "--exact-four-positive"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 112
    assert lines[-1] == "1772"


def test_counts_text_and_json_agree(capsys):
    code, out, _ = run(capsys, "counts", "--bound", "131072")
    assert code == 0
    text_counts = [int(line.split()[1]) for line in out.splitlines()]
    assert text_counts == [256, 19542, 95422, 131016]

    code, out, _ = run(capsys, "counts", "--bound", "131072", "--json")
    assert code == 0
    (record,) = records(out)
    assert record["counts"] == text_counts


@pytest.mark.parametrize(
    "length,profiles",
    [
        ("8", "4:3,2:4"),
        ("10", "4:2,2:4"),
        ("10", "4:3,2:3"),
    ],
)
def test_crossvalidate_known_lengths_match(capsys, length, profiles):
    code, out, _ = run(
        capsys, "--json", "crossvalidate", "--length", length, "--profiles", profiles
    )
    assert code == 0
    (record,) = records(out)
    assert record["holds"] is True
    assert record["symmetric_difference"] == 0
    assert record["machine_values"] == record["oracle_values"] > 0


def test_crossvalidate_skips_subsets_below_the_pinned_carry(capsys):
    # carry 1 fits the two summands of 4:2 but not the subset with one
    code, out, _ = run(
        capsys, "--json", "crossvalidate", "--length", "8", "--profiles", "4:2,carry=1"
    )
    assert code == 0
    assert records(out)[0]["machines"] == 1


def test_crossvalidate_pinned_carry_can_mismatch(capsys):
    code, out, _ = run(
        capsys,
        "--json",
        "crossvalidate",
        "--length",
        "8",
        "--profiles",
        "4:2,carry=1",
    )
    (record,) = records(out)
    if record["symmetric_difference"]:
        assert code == 1
        assert record["holds"] is False
    else:
        assert code == 0


def test_verify_generalized_odd_holds(capsys):
    code, out, _ = run(capsys, "--json", "verify", "generalized-odd")
    assert code == 0
    (record,) = records(out)
    assert record["holds"] is True
    # the proof runs on the family's cover, two of its three members
    assert (record["members"], record["family_members"]) == (2, 3)
    assert record["cover"] == ["G(0)", "G(1)"]
    assert record["states"] == 244
    assert (record["generated_states"], record["generated_transitions"]) == (348, 2799)
    assert record["generator_nodes"] == 31
    assert "counterexample" not in record
    # inclusion runs on the cover union's forward bisimulation quotient
    assert (record["proof_states"], record["proof_transitions"]) == (78, 702)
    assert record["explored"] == 37
    assert record["subset_steps"] == 165
    assert record["antichain_peak"] == 14
    assert 0 <= record["build_seconds"] <= record["wall_seconds"]
    assert 0 <= record["quotient_seconds"] <= record["wall_seconds"]
    assert 0 <= record["inclusion_seconds"] <= record["wall_seconds"]


@pytest.mark.parametrize(
    "target, search",
    [
        ("odd-squares", (165, 1037, 96)),
        ("even-squares", (1269, 8699, 909)),
        ("square-power-odd", (556, 3121, 226)),
        ("square-power-even", (1480, 8863, 797)),
        ("generalized-odd", (37, 165, 14)),
        ("generalized-even", (79, 415, 41)),
    ],
)
def test_verify_search_counts(capsys, target, search):
    # (explored, subset_steps, antichain_peak) of the search on the cover's
    # proof machine; test_lemma_machines pins the whole families' searches
    code, out, _ = run(capsys, "--json", "verify", target)
    assert code == 0
    (record,) = records(out)
    assert record["holds"] is True
    assert (record["explored"], record["subset_steps"], record["antichain_peak"]) == search


def test_failed_quotient_check_exits_four(capsys, monkeypatch):
    def no_initial(nfa):
        collapsed = automata.quotient(nfa)
        machine = automata.Nfa(
            collapsed.machine.alphabet,
            collapsed.machine.num_states,
            frozenset(),
            collapsed.machine.final,
            collapsed.machine.transitions,
        )
        return collapsed._replace(machine=machine)

    monkeypatch.setattr(lemma_machines, "quotient", no_initial)
    # a fresh runtime, so no proof machine cached by another test is reused
    monkeypatch.setattr(cli, "cover_runtime", lemma_machines.cover_runtime.__wrapped__)
    code, out, err = run(capsys, "verify", "generalized-odd")
    assert (code, out) == (4, "")
    assert err.startswith("error: forward quotient check failed")
    assert err.count("\n") == 1


def test_failed_witness_self_check_exits_four(capsys, monkeypatch):
    replay = lemma_machines.FamilyRuntime.replay

    def off_by_one(self, word, states):
        profile, squares, powers = replay(self, word, states)
        return profile, [squares[0] + 1, *squares[1:]], powers

    monkeypatch.setattr(lemma_machines.FamilyRuntime, "replay", off_by_one)
    code, out, err = run(capsys, "decompose", str(1 << 40))
    assert (code, out) == (4, "")
    assert err == f"error: parts do not sum to {1 << 40}\n"


def test_failed_edge_decoding_exits_four(capsys, monkeypatch):
    def shifted_states(name):
        labels = lemma_machines.FAMILY_COVERS[name]
        runtime = lemma_machines.FamilyRuntime(lemma_machines.select_profiles(name, labels))
        runtime.states = runtime.states[1:] + runtime.states[:1]
        return runtime

    monkeypatch.setattr(witness, "cover_runtime", shifted_states)
    code, out, err = run(capsys, "decompose", "--mode", "generalized", str(1 << 40))
    assert (code, out) == (4, "")
    assert err.startswith("error: union edge (")
    assert err.endswith("decodes to 0 guess records\n")


def test_export_dot_and_ats(capsys, tmp_path):
    dot = tmp_path / "checker.dot"
    code, out, _ = run(capsys, "export", "syntax-even", "--format", "dot", "--out", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph syntax_even {")
    assert "12 states" in out

    ats = tmp_path / "family.ats"
    code, _, _ = run(
        capsys, "export", "generalized-odd", "--format", "ats", "--out", str(ats)
    )
    assert code == 0
    assert ats.read_text().startswith("NestedWordAutomaton generalized_odd = (")


# sha256 of every export, machines in name order, dot before ats; pinned
# when the families' exports moved from the whole family unions to the
# cover unions
EXPORT_DIGEST = "5519184fbb86e68621b172a9426ea3350d30c5011c81f7d5c349f12894574027"
# the machines export writes: each family's cover union and the two
# squares syntax checkers
EXPORT_MACHINES = lemma_machines.FAMILY_NAMES + ("syntax-odd", "syntax-even")


def test_export_writes_the_cover_union(capsys, tmp_path):
    out = tmp_path / "machine.dot"
    code, stdout, _ = run(capsys, "--json", "export", "a-odd", "--format", "dot", "--out", str(out))
    assert code == 0
    union = lemma_machines.cover_runtime("a-odd").union
    (record,) = records(stdout)
    assert (record["states"], record["transitions"]) == (union.num_states, union.num_transitions())
    assert out.read_text() == automata.to_dot(union, "a_odd")


def test_export_digest(capsys, tmp_path):
    digest = hashlib.sha256()
    out = tmp_path / "machine"
    for machine in sorted(EXPORT_MACHINES):
        for fmt in ("dot", "ats"):
            code, _, _ = run(capsys, "export", machine, "--format", fmt, "--out", str(out))
            assert code == 0
            digest.update(out.read_bytes())
    assert digest.hexdigest() == EXPORT_DIGEST


@pytest.mark.parametrize("target", ["dir", "missing/checker.dot"])
def test_export_unwritable_path_exits_three(capsys, tmp_path, target):
    out = tmp_path / target
    if target == "dir":
        out.mkdir()
    code, _, err = run(capsys, "export", "syntax-even", "--format", "dot", "--out", str(out))
    assert code == 3
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err


def test_density_reports_both_ratios(capsys):
    code, out, _ = run(capsys, "--json", "density", "--bound", "65536")
    assert code == 0
    (record,) = records(out)
    low, high = record["window_min_float"], record["pointwise_float"]
    assert 0.1 < low < high < 0.3


def test_density_at_2_18_reports_the_exact_ratios(capsys, monkeypatch):
    builds = []
    real = oracle.sumset_table
    monkeypatch.setattr(oracle, "sumset_table", lambda *args: builds.append(args[1:]) or real(*args))
    oracle._two_square_sums.cache_clear()
    code, out, _ = run(capsys, "--json", "density", "--bound", str(1 << 18))
    assert code == 0
    # both ratios read one two-square table, on [0, 2**18]
    assert builds == [((1 << 18) + 1, 2)]
    (record,) = records(out)
    assert record["pointwise"] == [31259, 131072]
    assert record["window_min"] == [20616, 141551]


def test_uniqueness_holds(capsys):
    code, out, _ = run(capsys, "--json", "uniqueness", "--n", "4")
    assert code == 0
    (record,) = records(out)
    assert record["size"] == record["expected"] == 128


@pytest.mark.parametrize(
    "argv, fields, text",
    [
        (("counts", "--bound", "64"), {"kind", "bound", "counts"}, ["1 8", "2 21", "3 34", "4 44"]),
        (
            ("density", "--bound", "14"),
            {"kind", "bound", "pointwise", "pointwise_float", "window_min", "window_min_float"},
            ["pointwise   2/7 ~ 0.285714", "window-min  1/5 ~ 0.200000"],
        ),
        (
            ("uniqueness", "--n", "3"),
            {"kind", "n", "size", "expected", "holds"},
            ["n=3 size=32 expected=32 holds=True"],
        ),
    ],
    ids=["counts", "density", "uniqueness"],
)
def test_oracle_records_report_their_seconds(capsys, argv, fields, text):
    # the oracle call's wall time joins the JSON record; the text is as before
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    (record,) = records(out)
    assert set(record) == fields | {"seconds"}
    assert record["seconds"] >= 0 and round(record["seconds"], 3) == record["seconds"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines() == text


def test_optimality_only_nine(capsys):
    code, out, _ = run(capsys, "--json", "optimality", "--max-n", "11")
    assert code == 0
    by_n = {r["n"]: r["representations"] for r in records(out)}
    assert sorted(by_n) == [1, 3, 5, 7, 9, 11]
    assert sorted(by_n[9]) == [[238, 238, 36], [255, 221, 36]]
    assert all(not reps for n, reps in by_n.items() if n != 9)


@pytest.mark.parametrize("max_n", ["0", "-5", "26"])
def test_optimality_rejects_max_n_out_of_range(capsys, max_n):
    code, out, err = run(capsys, "optimality", "--max-n", max_n)
    assert code == 3
    assert out == ""
    assert "max_n" in err


@pytest.mark.parametrize("n", ["0", "13", "-1", "true"])
def test_uniqueness_rejects_n_out_of_range(capsys, n):
    code, out, err = run(capsys, "uniqueness", "--n", n)
    assert code == 3
    assert out == ""
    assert err


def test_verify_reports_the_mean_subset_popcount(capsys):
    code, out, _ = run(capsys, "--json", "verify", "generalized-odd")
    assert code == 0
    assert records(out)[0]["subset_popcount_mean"] == 8.54
    code, out, _ = run(capsys, "verify", "generalized-odd")
    assert "subsets      8.54 states mean" in out.splitlines()


def test_verify_reports_the_table_entries(capsys):
    # the chunk table entries the search built under the default cap
    code, out, _ = run(capsys, "--json", "verify", "generalized-odd")
    assert code == 0
    assert records(out)[0]["table_entries"] == 59
    code, out, _ = run(capsys, "verify", "generalized-odd")
    assert "tables       59 entries built" in out.splitlines()


def test_verify_text_reports_the_cover(capsys):
    code, out, _ = run(capsys, "verify", "square-power-even")
    assert code == 0
    lines = out.splitlines()
    assert "members      5 of 13 family members" in lines
    assert "cover        SP(0,1,0,0) SP(1,0,1,0) SP(1,0,1,1) SP(0,1,1,1) SP(0,1,1,2)" in lines


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("frobnicate",),
        ("decompose",),
        ("export", "no-such-machine", "--format", "dot", "--out", "/tmp/x"),
        ("crossvalidate", "--length", "8", "--profiles", "nonsense"),
        ("crossvalidate", "--length", "20", "--profiles", "4:1"),
        ("crossvalidate", "--length", "8", "--profiles", "3:1"),
        ("--parallel", "0", "counts", "--bound", "16"),
        ("exceptions", "--bound", "0"),
    ],
)
def test_usage_errors_exit_three(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err


@pytest.mark.parametrize("spec", ["2:120,carry=0", "4:6,2:6", "4:5,2:4"])
def test_crossvalidate_rejects_more_than_eight_summands(capsys, spec):
    code, out, err = run(capsys, "crossvalidate", "--length", "14", "--profiles", spec)
    assert code == 3
    assert out == ""
    assert "more than 8" in err


@pytest.mark.parametrize("spec", ["0:0", "2:1,carry=5", "4:2,carry=2"])
def test_crossvalidate_rejects_specs_that_build_no_machine(capsys, monkeypatch, spec):
    def no_build(*args):
        raise AssertionError("a machine was built")

    monkeypatch.setattr(cli, "fixed_machine", no_build)
    code, out, err = run(capsys, "crossvalidate", "--length", "12", "--profiles", spec)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("length, spec, summand", [("8", "3:1", 5), ("14", "-3:1", 17), ("14", "14:1", 0)])
def test_crossvalidate_names_the_summand_length_it_rejects(capsys, length, spec, summand):
    # a summand is length - offset bits long, which may be odd, short or
    # longer than the target
    code, out, err = run(capsys, "crossvalidate", "--length", length, f"--profiles={spec}")
    assert code == 3
    assert out == ""
    assert f"makes the summand length {summand}, which is odd or below 2" in err


def test_crossvalidate_accepts_eight_summands(capsys):
    code, out, _ = run(capsys, "--json", "crossvalidate", "--length", "8", "--profiles", "4:4,2:4")
    assert code == 0
    assert records(out)[0]["machines"] == 100


@pytest.mark.parametrize("command", ["exceptions", "counts", "density"])
def test_bound_above_the_table_limit_exits_three(capsys, command):
    code, out, err = run(capsys, command, "--bound", str(10**12))
    assert code == 3
    assert out == ""
    assert "exceeds" in err


def test_density_names_its_own_bound(capsys):
    # the table behind it covers [0, m], so m = 2**24 is one value too many
    code, out, err = run(capsys, "density", "--bound", str(1 << 24))
    assert code == 3
    assert out == ""
    assert err == "error: m 16777216 exceeds the supported maximum 2**24 - 1\n"


def test_decompose_json_reports_the_frontier(capsys):
    value = (1 << 40) + 3
    code, out, _ = run(capsys, "--json", "decompose", str(value))
    assert code == 0
    (record,) = records(out)
    assert 0 < record["frontier_max"] <= record["states_visited"]
    code, out, _ = run(capsys, "--json", "decompose", "687")
    assert records(out)[0]["frontier_max"] == 0


def test_decompose_json_times_the_stages_of_machine_results(capsys):
    stages = ("fold_seconds", "path_seconds", "replay_seconds", "verify_seconds")
    code, out, _ = run(capsys, "--json", "decompose", str((1 << 40) + 3))
    assert code == 0
    (record,) = records(out)
    assert all(record[stage] >= 0 for stage in stages)
    assert sum(record[stage] for stage in stages) > 0
    code, out, _ = run(capsys, "--json", "decompose", "687")
    assert not set(stages) & set(records(out)[0])


def test_decompose_json_reports_the_path_memo_hits(capsys, monkeypatch):
    value = (1 << 40) + 3
    runtime = lemma_machines.cover_runtime("a-odd")
    runtime.kernel  # noqa: B018 -- cached, so that teardown restores it
    monkeypatch.delitem(runtime.__dict__, "kernel")
    hits, builds = [], []
    for _ in range(2):
        code, out, _ = run(capsys, "--json", "decompose", str(value))
        assert code == 0
        hits.append(records(out)[0]["path_memo_hits"])
        builds.append(records(out)[0]["path_table_builds"])
    # the second search repeats every backward step of the first, so it
    # builds no chunk-table entry
    assert hits[0] < hits[1] == len(folding.fold(value).ids)
    assert builds[0] > 0 == builds[1]
    code, out, _ = run(capsys, "--json", "decompose", "687")
    assert not {"path_memo_hits", "path_table_builds"} & set(records(out)[0])


_RUNTIMES_BUILT = """
import json, sys
from binsquares import cli, lemma_machines
for mode in ("squares4", "square-power", "generalized"):
    for value in (1 << 40, 1 << 41):
        assert cli.main(["decompose", "--mode", mode, str(value)]) == 0
assert cli.main(["export", "a-odd", "--format", "ats", "--out", sys.argv[1]]) == 0
whole, cover = lemma_machines.family_runtime, lemma_machines.cover_runtime
built = whole.cache_info().currsize, cover.cache_info()
for name in lemma_machines.FAMILY_NAMES:
    cover(name)
print(json.dumps([*built, cover.cache_info()]))
"""


def test_decompose_and_export_build_only_cover_runtimes(tmp_path):
    # a fresh interpreter, so no runtime another test built is counted
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _RUNTIMES_BUILT, str(tmp_path / "a_odd.ats")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    whole, before, after = json.loads(done.stdout.splitlines()[-1])
    assert whole == 0
    # (hits, misses, maxsize, currsize): the six families were built once
    # each and are held, so asking for them again builds nothing
    assert before[1] == before[3] == 6
    assert after[1] == 6 and after[0] == before[0] + 6


def test_flags_accepted_after_subcommand(capsys):
    code, out, _ = run(capsys, "uniqueness", "--n", "3", "--json")
    assert code == 0
    (record,) = records(out)
    assert record["kind"] == "uniqueness"
