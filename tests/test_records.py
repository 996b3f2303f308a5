"""The package's record types keep their fields, defaults, immutability,
equality and validation.  ``Nfa``'s checks are in test_automata."""

import pytest

from binsquares.automata import InclusionResult
from binsquares.folding import FoldedWord, Symbol
from binsquares.lemma_machines import Profile, Summand
from binsquares.numberforms import GroundSetKind
from binsquares.oracle import SumsetTable
from binsquares.witness import Decomposition

SQUARE = "BinarySquare"

# per record: (an instance, one that differs from it in every field, the
# fields that take no part in comparisons)
RECORDS = {
    "Symbol": (Symbol("c", (1, 0)), Symbol("f", (1,)), ()),
    "FoldedWord": (FoldedWord("odd", (3, 1)), FoldedWord("even", (2,)), ()),
    "Summand": (Summand(0, 2, "free"), Summand(2, 1, "zero"), ()),
    "Profile": (
        Profile("odd", (Summand(1, 1),), 1, 2, "A(1)"),
        Profile("even", (), 0),
        (),
    ),
    "SumsetTable": (
        SumsetTable(GroundSetKind.BINARY_SQUARE, 4, 1, (1, 0b1011)),
        SumsetTable(GroundSetKind.POWER_OF_TWO, 8, 0, (1,)),
        (),
    ),
    "InclusionResult": (
        InclusionResult(True, None, 3, 4, 1, 1.5, 7),
        InclusionResult(False, (Symbol("f", (1,)),), 9, 8, 2, 0.5, 1),
        ("table_entries",),
    ),
    "Decomposition": (
        Decomposition(5, ((4, SQUARE), (1, SQUARE))),
        Decomposition(9, ((9, SQUARE),), "A(1)", 4, 2, {"fold": 1.0}, 3, 5),
        ("stage_seconds", "path_memo_hits", "path_table_builds"),
    ),
}
FIELDS = {
    "Symbol": ("tag", "bits"),
    "FoldedWord": ("parity", "ids"),
    "Summand": ("offset", "count", "top"),
    "Profile": ("parity", "summands", "carry", "max_powers", "label"),
    "SumsetTable": ("kind", "bound", "max_k", "reach"),
    "InclusionResult": (
        "holds",
        "counterexample",
        "explored",
        "subset_steps",
        "antichain_peak",
        "subset_popcount_mean",
        "table_entries",
    ),
    "Decomposition": (
        "target",
        "parts",
        "profile",
        "states_visited",
        "frontier_max",
        "stage_seconds",
        "path_memo_hits",
        "path_table_builds",
    ),
}


def rebuilt(record, **changes):
    """The record built again by keyword, with some fields changed."""
    return type(record)(**{**record._asdict(), **changes})


@pytest.mark.parametrize("name", RECORDS)
def test_fields_keep_their_order_and_both_forms_of_construction(name):
    record = RECORDS[name][0]
    assert record._fields == FIELDS[name]
    assert type(record)(*record) == record == rebuilt(record)


def test_defaults():
    assert Summand(0, 1) == Summand(0, 1, "exact")
    assert Profile("odd", (), 1) == Profile("odd", (), 1, max_powers=0, label="")
    dec = Decomposition(5, ((5, SQUARE),))
    assert (dec.profile, dec.states_visited, dec.frontier_max) == ("", 0, 0)
    assert (dec.stage_seconds, dec.path_memo_hits, dec.path_table_builds) == ({}, None, None)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name][0]
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_equality_ignores_exactly_the_uncompared_fields(name):
    record, other, ignored = RECORDS[name]
    for field in FIELDS[name]:
        changed = rebuilt(record, **{field: getattr(other, field)})
        if field in ignored:
            assert changed == record and not changed != record
            assert hash(changed) == hash(record)
        else:
            assert changed != record and not changed == record


def test_each_decomposition_gets_its_own_stage_seconds():
    # witness._certified adds the verify time to the result's dict
    first, second = Decomposition(1, ((1, SQUARE),)), Decomposition(1, ((1, SQUARE),))
    first.stage_seconds["verify"] = 0.5
    assert second.stage_seconds == {}


def test_symbols_order_by_tag_then_bits():
    # this order sets every alphabet's letter ids, and so the golden digests
    letters = [Symbol("b", (0,)), Symbol("a", (1, 1)), Symbol("a", (1,)), Symbol("a", (0, 1))]
    assert sorted(letters) == [Symbol("a", (0, 1)), Symbol("a", (1,)), Symbol("a", (1, 1)), Symbol("b", (0,))]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Symbol("f", ()), "malformed symbol payload"),
        (lambda: Symbol("c", (0, 1, 1)), "malformed symbol payload"),
        (lambda: Symbol(tag="f", bits=(2,)), "malformed symbol payload"),
        # a list of bits used to build, then fail unhashable inside Alphabet
        (lambda: Symbol("a", [0, 1]), "malformed symbol"),
        (lambda: Symbol("f", "1"), "malformed symbol"),
        (lambda: Symbol(3, (0,)), "malformed symbol"),
        (lambda: Symbol(b"a", (0,)), "malformed symbol"),
        (lambda: Summand(0, -1), "summand count must be >= 0"),
        (lambda: Summand(offset=0, count=1, top="half"), "top must be one of"),
    ],
    ids=[
        "no-bits",
        "three-bits",
        "bit-2",
        "list-bits",
        "str-bits",
        "int-tag",
        "bytes-tag",
        "negative-count",
        "unknown-top",
    ],
)
def test_validation_still_raises(build, message):
    with pytest.raises(ValueError, match=message):
        build()
