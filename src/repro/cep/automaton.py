"""Pattern compilation: regular expression -> NFA -> DFA (Section 6).

"As a first step, event patterns in the form of regular expressions are
converted to deterministic finite automata (DFA). A detection occurs
every time the DFA reaches one of its final states."

Compilation is Thompson construction followed by subset construction.
For stream matching the pattern is *unanchored* — compiled as
``Σ* R`` — so a complex event is detected whenever the pattern completes
anywhere in the stream (the streaming semantics of the Wayeb system).
The DFA's transition function is **total** over the declared alphabet,
which the Pattern-Markov-Chain construction requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .pattern import Or, Pattern, Seq, Star, Sym

_EPS = None  # epsilon label


class _NFA:
    """Thompson NFA under construction: integer states, labelled edges."""

    def __init__(self):
        self.transitions: list[list[tuple[str | None, int]]] = []

    def new_state(self) -> int:
        self.transitions.append([])
        return len(self.transitions) - 1

    def add_edge(self, src: int, label: str | None, dst: int) -> None:
        self.transitions[src].append((label, dst))


def _build_nfa(pattern: Pattern, nfa: _NFA) -> tuple[int, int]:
    """Thompson construction; returns (start, accept) states."""
    if isinstance(pattern, Sym):
        start, accept = nfa.new_state(), nfa.new_state()
        nfa.add_edge(start, pattern.symbol, accept)
        return start, accept
    if isinstance(pattern, Seq):
        first_start, prev_accept = _build_nfa(pattern.parts[0], nfa)
        for part in pattern.parts[1:]:
            s, a = _build_nfa(part, nfa)
            nfa.add_edge(prev_accept, _EPS, s)
            prev_accept = a
        return first_start, prev_accept
    if isinstance(pattern, Or):
        start, accept = nfa.new_state(), nfa.new_state()
        for part in pattern.parts:
            s, a = _build_nfa(part, nfa)
            nfa.add_edge(start, _EPS, s)
            nfa.add_edge(a, _EPS, accept)
        return start, accept
    if isinstance(pattern, Star):
        start, accept = nfa.new_state(), nfa.new_state()
        s, a = _build_nfa(pattern.inner, nfa)
        nfa.add_edge(start, _EPS, s)
        nfa.add_edge(start, _EPS, accept)
        nfa.add_edge(a, _EPS, s)
        nfa.add_edge(a, _EPS, accept)
        return start, accept
    raise TypeError(f"unknown pattern node {type(pattern).__name__}")


def _eps_closure(nfa: _NFA, states: frozenset[int]) -> frozenset[int]:
    stack = list(states)
    closure = set(states)
    while stack:
        state = stack.pop()
        for label, dst in nfa.transitions[state]:
            if label is _EPS and dst not in closure:
                closure.add(dst)
                stack.append(dst)
    return frozenset(closure)


@dataclass
class DFA:
    """A total DFA over a finite alphabet."""

    alphabet: tuple[str, ...]
    n_states: int
    start: int
    finals: frozenset[int]
    delta: dict[tuple[int, str], int] = field(repr=False, default_factory=dict)

    def step(self, state: int, symbol: str) -> int:
        try:
            return self.delta[(state, symbol)]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in the alphabet") from None

    def is_final(self, state: int) -> bool:
        return state in self.finals


def compile_pattern(pattern: Pattern, alphabet: Sequence[str]) -> DFA:
    """Compile a pattern to a total DFA over ``alphabet``.

    Stream semantics: the DFA is that of ``Σ* R``, so it is in a final
    state whenever the pattern just completed, whatever preceded it.
    """
    missing = pattern.symbols() - set(alphabet)
    if missing:
        raise ValueError(f"pattern symbols outside the alphabet: {sorted(missing)}")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet contains duplicates")
    nfa = _NFA()
    start, accept = _build_nfa(pattern, nfa)
    # Σ* prefix: loop on every symbol at a fresh start state.
    loop = nfa.new_state()
    for symbol in alphabet:
        nfa.add_edge(loop, symbol, loop)
    nfa.add_edge(loop, _EPS, start)
    start = loop

    # Subset construction with a total transition function.
    initial = _eps_closure(nfa, frozenset({start}))
    subset_ids: dict[frozenset[int], int] = {initial: 0}
    worklist = [initial]
    delta: dict[tuple[int, str], int] = {}
    finals: set[int] = set()
    if accept in initial:
        finals.add(0)
    while worklist:
        subset = worklist.pop()
        sid = subset_ids[subset]
        for symbol in alphabet:
            moved = frozenset(
                dst for state in subset for label, dst in nfa.transitions[state] if label == symbol
            )
            closure = _eps_closure(nfa, moved)
            if closure not in subset_ids:
                subset_ids[closure] = len(subset_ids)
                worklist.append(closure)
                if accept in closure:
                    finals.add(subset_ids[closure])
            delta[(sid, symbol)] = subset_ids[closure]
    return DFA(
        alphabet=tuple(alphabet),
        n_states=len(subset_ids),
        start=0,
        finals=frozenset(finals),
        delta=delta,
    )
