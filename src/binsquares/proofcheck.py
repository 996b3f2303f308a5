"""Independent checks that a quotient machine accepts the same words.

:func:`automata.quotient` collapses a machine by a forward and then a
backward bisimulation, and ``verify`` proves its theorems on the collapsed
machine.  The checks here re-derive, from the two machines and the state
map alone, that each stage keeps the language; they share no code with the
refinement that built the map.

A forward stage needs a surjective map h from A onto B with h(initial of A)
= initial of B, q final in A exactly when h(q) is final in B, and, for every
state q and symbol, h of q's successors = the successors of h(q) in B.  Then
q and h(q) accept the same words, so A and B do.  A backward stage is the
mirror: predecessors for successors, with initial and final swapped.
"""

from __future__ import annotations

from typing import NoReturn, Sequence

from .automata import Nfa


def _rows(nfa: Nfa, backward: bool) -> list[dict[int, set[int]]]:
    """Per state, symbol id -> successors, or predecessors when ``backward``."""
    if not backward:
        return [{sym_id: set(dsts) for sym_id, dsts in row.items()} for row in nfa.transitions]
    rows: list[dict[int, set[int]]] = [{} for _ in range(nfa.num_states)]
    for src, row in enumerate(nfa.transitions):
        for sym_id, dsts in row.items():
            for dst in dsts:
                rows[dst].setdefault(sym_id, set()).add(src)
    return rows


def _check(a: Nfa, b: Nfa, h: Sequence[int], backward: bool) -> None:
    stage = "backward" if backward else "forward"

    def fail(reason: str) -> NoReturn:
        raise RuntimeError(f"{stage} quotient check failed: {reason}")

    if a.alphabet.symbols != b.alphabet.symbols:
        fail("the machines speak different alphabets")
    if len(h) != a.num_states or set(h) != set(range(b.num_states)):
        fail("the state map is not onto the quotient's states")
    starts, stops = (a.final, a.initial) if backward else (a.initial, a.final)
    b_starts, b_stops = (b.final, b.initial) if backward else (b.initial, b.final)
    if {h[q] for q in starts} != b_starts:
        fail("the start states do not map onto the quotient's")
    for q in range(a.num_states):
        if (q in stops) != (h[q] in b_stops):
            fail(f"state {q} and its image {h[q]} disagree on stopping")
    a_rows, b_rows = _rows(a, backward), _rows(b, backward)
    for q, row in enumerate(a_rows):
        image = {sym_id: {h[r] for r in rs} for sym_id, rs in row.items()}
        if image != b_rows[h[q]]:
            fail(f"state {q} and its image {h[q]} have different neighbours")


def check_forward(a: Nfa, b: Nfa, h: Sequence[int]) -> None:
    """Raise :class:`RuntimeError` unless ``h`` maps A onto B as a forward
    bisimulation, which makes L(A) = L(B)."""
    _check(a, b, h, backward=False)


def check_backward(a: Nfa, b: Nfa, h: Sequence[int]) -> None:
    """Raise :class:`RuntimeError` unless ``h`` maps A onto B as a backward
    bisimulation, which makes L(A) = L(B)."""
    _check(a, b, h, backward=True)
