"""The independent quotient check, on the six families and on broken maps."""

import pytest

from binsquares import lemma_machines
from binsquares.automata import Nfa, quotient
from binsquares.lemma_machines import (
    FAMILY_NAMES,
    FamilyRuntime,
    family_profiles,
    family_runtime,
    family_union,
)
from binsquares.proofcheck import check_forward


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_both_stages_check_on_every_family(name):
    # the map passes the check, and the proof machine is the checked quotient
    union = family_union(name)
    collapsed = quotient(union)
    check_forward(union, collapsed.machine, collapsed.forward)
    proof = family_runtime(name).proof_machine
    assert proof.transitions == collapsed.machine.transitions
    assert (proof.initial, proof.final) == (collapsed.machine.initial, collapsed.machine.final)


def merge(nfa: Nfa, keep: int, drop: int) -> tuple[Nfa, list[int]]:
    """The machine with state ``drop`` merged into ``keep``, and the map of
    the old states onto the new ones."""
    ids: dict[int, int] = {}
    g = [ids.setdefault(keep if q == drop else q, len(ids)) for q in range(nfa.num_states)]
    rows: list[dict[int, set[int]]] = [{} for _ in ids]
    for src, sym_id, dst in nfa.walk():
        rows[g[src]].setdefault(sym_id, set()).add(g[dst])
    merged = Nfa(
        alphabet=nfa.alphabet,
        num_states=len(ids),
        initial=frozenset(g[q] for q in nfa.initial),
        final=frozenset(g[q] for q in nfa.final),
        transitions=[{s: tuple(sorted(d)) for s, d in row.items()} for row in rows],
    )
    return merged, g


def with_fields(nfa: Nfa, **changes) -> Nfa:
    """A new machine with the given fields of ``nfa`` changed."""
    fields = {name: getattr(nfa, name) for name in Nfa.__slots__}
    return Nfa(**{**fields, **changes})


def redirect_one_edge(nfa: Nfa) -> Nfa:
    """The machine with its first edge sent to the lowest state outside the
    edge's successor set."""
    src, sym_id, dst = next(nfa.walk())
    dsts = nfa.transitions[src][sym_id]
    other = min(set(range(nfa.num_states)) - set(dsts))
    transitions = [dict(row) for row in nfa.transitions]
    transitions[src][sym_id] = tuple(sorted(set(dsts) - {dst} | {other}))
    return with_fields(nfa, transitions=transitions)


@pytest.fixture(scope="module")
def stages():
    """(check, A, B, h) for each stage of the generalized-odd quotient."""
    union = family_union("generalized-odd")
    collapsed = quotient(union)
    return {"forward": (check_forward, union, collapsed.machine, collapsed.forward)}


@pytest.mark.parametrize("stage", ["forward"])
def test_merging_states_that_end_differently_is_rejected(stages, stage):
    # a forward stage must keep finality
    check, a, b, h = stages[stage]
    inside = min(b.final)
    outside = min(set(range(b.num_states)) - b.final)
    merged, g = merge(b, inside, outside)
    with pytest.raises(RuntimeError, match="disagree on stopping"):
        check(a, merged, [g[x] for x in h])


@pytest.mark.parametrize("stage", ["forward"])
def test_redirected_quotient_edge_is_rejected(stages, stage):
    check, a, b, h = stages[stage]
    with pytest.raises(RuntimeError, match="different neighbours"):
        check(a, redirect_one_edge(b), h)


@pytest.mark.parametrize("stage", ["forward"])
def test_dropped_initial_state_is_rejected(stages, stage):
    check, a, b, h = stages[stage]
    with pytest.raises(RuntimeError, match=f"{stage} quotient check failed"):
        check(a, with_fields(b, initial=b.initial - {min(b.initial)}), h)


def test_unchecked_proof_machine_is_refused(monkeypatch):
    real = lemma_machines.quotient

    def broken(nfa):
        collapsed = real(nfa)
        return collapsed._replace(machine=redirect_one_edge(collapsed.machine))

    monkeypatch.setattr(lemma_machines, "quotient", broken)
    runtime = FamilyRuntime(family_profiles("generalized-odd"))
    with pytest.raises(RuntimeError, match="forward quotient check failed"):
        runtime.proof_machine
