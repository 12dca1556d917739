"""The language of a compiled pattern, one whole sequence at a time.

``repro.cep`` runs a DFA a symbol at a time over an endless stream and
reports every final state it passes. The tests judge the compiler by
the sequences the DFA accepts — whether a whole sequence ends in a
final state — and compare that language with Python's ``re``.
"""

from __future__ import annotations

from typing import Sequence

from repro.cep import DFA


def accepts(dfa: DFA, symbols: Sequence[str]) -> bool:
    """Whether the full symbol sequence ends in a final state."""
    state = dfa.start
    for symbol in symbols:
        state = dfa.step(state, symbol)
    return dfa.is_final(state)
