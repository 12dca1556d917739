"""Property-based tests for the CEP compilation pipeline.

The strongest invariant available: our Thompson+subset compiler must
agree with Python's ``re`` engine on every pattern and input. Patterns
are generated as random ASTs, rendered both to our compiler and to an
equivalent ``re`` regex, and checked on random symbol strings.
"""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep import Or, Seq, Star, Sym, compile_pattern
from repro.cep.events import conditional_distribution
from repro.cep.markov import build_pmc_iid, build_pmc_markov
from repro.cep.waiting import waiting_time_distribution

from tests.oracles.dfa import accepts

ALPHABET = ("a", "b", "c")


def pattern_strategy(max_depth: int = 3):
    """Random pattern ASTs over the alphabet."""
    leaf = st.sampled_from(ALPHABET).map(Sym)

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda ps: Seq(tuple(ps))),
            st.lists(children, min_size=2, max_size=3).map(lambda ps: Or(tuple(ps))),
            children.map(Star),
        )

    return st.recursive(leaf, extend, max_leaves=6)


def to_regex(pattern) -> str:
    """Render a pattern AST as an equivalent Python regex."""
    if isinstance(pattern, Sym):
        return pattern.symbol
    if isinstance(pattern, Seq):
        return "".join(f"(?:{to_regex(p)})" for p in pattern.parts)
    if isinstance(pattern, Or):
        return "|".join(f"(?:{to_regex(p)})" for p in pattern.parts)
    if isinstance(pattern, Star):
        return f"(?:{to_regex(pattern.inner)})*"
    raise TypeError(type(pattern))


class TestDFAEquivalence:

    @given(pattern_strategy(), st.lists(st.sampled_from(ALPHABET), max_size=10))
    @settings(max_examples=150)
    def test_unanchored_matches_suffix_semantics(self, pattern, symbols):
        dfa = compile_pattern(pattern, ALPHABET)
        text = "".join(symbols)
        expected = re.fullmatch(f"(?:[abc])*(?:{to_regex(pattern)})", text) is not None
        assert accepts(dfa, symbols) == expected

    @given(pattern_strategy())
    @settings(max_examples=60)
    def test_transition_function_total(self, pattern):
        dfa = compile_pattern(pattern, ALPHABET)
        for q in range(dfa.n_states):
            for s in ALPHABET:
                assert 0 <= dfa.step(q, s) < dfa.n_states


class TestPMCProperties:
    @given(pattern_strategy(), st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
    @settings(max_examples=60)
    def test_iid_pmc_stochastic(self, pattern, weights):
        dfa = compile_pattern(pattern, ALPHABET)
        total = sum(weights)
        probs = {s: w / total for s, w in zip(ALPHABET, weights)}
        pmc = build_pmc_iid(dfa, probs)
        assert pmc.is_stochastic()

    @given(pattern_strategy(), st.lists(st.sampled_from(ALPHABET), min_size=20, max_size=80))
    @settings(max_examples=40)
    def test_markov_pmc_stochastic(self, pattern, symbols):
        dfa = compile_pattern(pattern, ALPHABET)
        pmc = build_pmc_markov(dfa, conditional_distribution(symbols, ALPHABET, 1), 1)
        assert pmc.is_stochastic()

    @given(pattern_strategy())
    @settings(max_examples=40)
    def test_waiting_time_is_subdistribution(self, pattern):
        dfa = compile_pattern(pattern, ALPHABET)
        pmc = build_pmc_iid(dfa, {"a": 0.3, "b": 0.3, "c": 0.4})
        for state in range(pmc.n_states):
            w = waiting_time_distribution(pmc, state, 20)
            assert (w >= -1e-12).all()
            assert w.sum() <= 1.0 + 1e-9
