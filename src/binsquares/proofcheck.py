"""An independent check that a quotient machine accepts the same words.

:func:`automata.quotient` collapses a machine by a forward bisimulation, and
``verify`` proves its theorems on the collapsed machine.  The check here
re-derives, from the two machines and the state map alone, that the
collapse keeps the language; it shares no code with the refinement that
built the map.

It needs a surjective map h from A onto B with h(initial of A) = initial of
B, q final in A exactly when h(q) is final in B, and, for every state q and
symbol, h of q's successors = the successors of h(q) in B.  Then q and h(q)
accept the same words, so A and B do.
"""

from __future__ import annotations

from typing import NoReturn, Sequence

from .automata import Nfa


def check_forward(a: Nfa, b: Nfa, h: Sequence[int]) -> None:
    """Raise :class:`RuntimeError` unless ``h`` maps A onto B as a forward
    bisimulation, which makes L(A) = L(B)."""

    def fail(reason: str) -> NoReturn:
        raise RuntimeError(f"forward quotient check failed: {reason}")

    if a.alphabet.symbols != b.alphabet.symbols:
        fail("the machines speak different alphabets")
    if len(h) != a.num_states or set(h) != set(range(b.num_states)):
        fail("the state map is not onto the quotient's states")
    if {h[q] for q in a.initial} != b.initial:
        fail("the start states do not map onto the quotient's")
    for q in range(a.num_states):
        if (q in a.final) != (h[q] in b.final):
            fail(f"state {q} and its image {h[q]} disagree on stopping")
    b_rows = [{sym_id: set(rs) for sym_id, rs in row.items()} for row in b.transitions]
    for q, row in enumerate(a.transitions):
        image = {sym_id: {h[r] for r in rs} for sym_id, rs in row.items()}
        if image != b_rows[h[q]]:
            fail(f"state {q} and its image {h[q]} have different neighbours")
