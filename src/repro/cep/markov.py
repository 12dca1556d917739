"""Pattern Markov Chains (Section 6, Figure 6).

Given the DFA of a pattern and a probabilistic model of the input
stream, the PMC is a Markov chain describing the DFA's state evolution:

* **i.i.d. inputs** — PMC states are exactly the DFA states and the
  transition ``q -> δ(q, σ)`` carries probability P(σ);
* **m-order Markov inputs** — the i.i.d. assumption is relaxed: PMC
  states become pairs ``(q, c)`` of a DFA state and the last ``m``
  symbols (the context), and transitions carry the *conditional*
  probabilities P(σ | c) — the "more complex transformation" the paper
  describes for 1st/2nd-order processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .automaton import DFA
from .events import lookup_conditional


@dataclass
class PatternMarkovChain:
    """The PMC: states, stochastic matrix, and which states are 'detection' states."""

    dfa: DFA
    order: int
    states: list[tuple[int, tuple[str, ...]]]   # (dfa state, context); context=() for iid
    index: dict[tuple[int, tuple[str, ...]], int]
    matrix: np.ndarray                          # row-stochastic transition matrix
    final_mask: np.ndarray                      # bool per PMC state

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_index(self, dfa_state: int, context: tuple[str, ...]) -> int | None:
        """The PMC index of a (DFA state, context) pair, if reachable."""
        return self.index.get((dfa_state, context))

    def is_stochastic(self) -> bool:
        return bool(np.allclose(self.matrix.sum(axis=1), 1.0, atol=1e-9))


def build_pmc_iid(dfa: DFA, symbol_probs: dict[str, float]) -> PatternMarkovChain:
    """PMC under i.i.d. inputs: direct mapping of DFA states and transitions."""
    _check_distribution(symbol_probs, dfa.alphabet)
    n = dfa.n_states
    matrix = np.zeros((n, n))
    for q in range(n):
        for symbol in dfa.alphabet:
            matrix[q, dfa.step(q, symbol)] += symbol_probs[symbol]
    states = [(q, ()) for q in range(n)]
    return PatternMarkovChain(
        dfa=dfa,
        order=0,
        states=states,
        index={s: i for i, s in enumerate(states)},
        matrix=matrix,
        final_mask=np.array([dfa.is_final(q) for q in range(n)]),
    )


def build_pmc_markov(
    dfa: DFA,
    conditional: dict[tuple[str, ...], dict[str, float]],
    order: int,
) -> PatternMarkovChain:
    """PMC under an m-order Markov input process.

    States are the reachable (DFA state, last-m-symbols) pairs; reachability
    is explored from every (start-state, context) combination so the chain
    is usable from any point of a running stream.
    """
    if order < 1:
        raise ValueError("use build_pmc_iid for order 0")
    alphabet = dfa.alphabet
    # Seed with every possible context at the DFA start state.
    contexts = _all_contexts(alphabet, order)
    seeds = [(dfa.start, c) for c in contexts]
    index: dict[tuple[int, tuple[str, ...]], int] = {}
    states: list[tuple[int, tuple[str, ...]]] = []
    worklist = []
    for seed in seeds:
        if seed not in index:
            index[seed] = len(states)
            states.append(seed)
            worklist.append(seed)
    transitions: list[tuple[int, int, float]] = []
    while worklist:
        q, context = worklist.pop()
        src = index[(q, context)]
        row = lookup_conditional(conditional, context, alphabet)
        for symbol in alphabet:
            dst_pair = (dfa.step(q, symbol), context[1:] + (symbol,))
            if dst_pair not in index:
                index[dst_pair] = len(states)
                states.append(dst_pair)
                worklist.append(dst_pair)
            transitions.append((src, index[dst_pair], row[symbol]))
    n = len(states)
    matrix = np.zeros((n, n))
    for src, dst, p in transitions:
        matrix[src, dst] += p
    final_mask = np.array([dfa.is_final(q) for q, _ in states])
    return PatternMarkovChain(
        dfa=dfa, order=order, states=states, index=index, matrix=matrix, final_mask=final_mask
    )


def _all_contexts(alphabet: Sequence[str], order: int) -> list[tuple[str, ...]]:
    contexts: list[tuple[str, ...]] = [()]
    for _ in range(order):
        contexts = [c + (s,) for c in contexts for s in alphabet]
    return contexts


def _check_distribution(probs: dict[str, float], alphabet: Sequence[str]) -> None:
    missing = set(alphabet) - set(probs)
    if missing:
        raise ValueError(f"distribution missing symbols: {sorted(missing)}")
    total = sum(probs[a] for a in alphabet)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"distribution sums to {total}, not 1")
