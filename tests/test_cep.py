"""Tests for CEP: patterns, DFA, PMC, waiting times, forecasting."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep import (
    SimpleEvent,
    Sym,
    WayebEngine,
    build_pmc_iid,
    build_pmc_markov,
    compile_pattern,
    conditional_distribution,
    disj,
    empirical_distribution,
    forecast_interval,
    heading_quadrant,
    north_to_south_reversal,
    parse_pattern,
    score_forecasts,
    seq,
    star,
    waiting_time_distribution,
)
from repro.cep.events import CIH_EAST, CIH_NORTH, CIH_SOUTH, HEADING_ALPHABET
from repro.cep.pattern import PatternSyntaxError

from tests.oracles.dfa import accepts

ABC = ("a", "b", "c")


class TestPatternParsing:
    def test_parse_symbol(self):
        assert parse_pattern("a") == Sym("a")

    def test_parse_sequence(self):
        assert parse_pattern("a ; b ; c") == seq(Sym("a"), Sym("b"), Sym("c"))

    def test_parse_disjunction_precedence(self):
        # Sequence binds tighter than |.
        p = parse_pattern("a ; b | c")
        assert p == disj(seq(Sym("a"), Sym("b")), Sym("c"))

    def test_parse_star_and_parens(self):
        p = parse_pattern("a ; (b | c)* ; a")
        assert p == seq(Sym("a"), star(disj(Sym("b"), Sym("c"))), Sym("a"))

    def test_parse_plus(self):
        p = parse_pattern("a+")
        assert p == seq(Sym("a"), star(Sym("a")))

    def test_roundtrip_str(self):
        p = north_to_south_reversal()
        assert parse_pattern(str(p)) == p

    def test_syntax_errors(self):
        for bad in ["", "(a", "a |", "*a", "a %% b"]:
            with pytest.raises(PatternSyntaxError):
                parse_pattern(bad)


class TestDFA:
    def test_paper_figure6_pattern(self):
        """R = acc over Sigma = {a,b,c}: the paper's Figure 6(a) example."""
        dfa = compile_pattern(parse_pattern("a ; c ; c"), ABC)
        assert accepts(dfa, ["a", "c", "c"])
        assert not accepts(dfa, ["a", "c"])
        assert not accepts(dfa, ["a", "c", "c", "c"])  # the last three are not a c c

    def test_unanchored_stream_semantics(self):
        dfa = compile_pattern(parse_pattern("a ; c ; c"), ABC)
        assert accepts(dfa, ["b", "b", "a", "c", "c"])
        state = dfa.start
        finals_hit = []
        for i, s in enumerate(["a", "c", "c", "a", "c", "c"]):
            state = dfa.step(state, s)
            if dfa.is_final(state):
                finals_hit.append(i)
        assert finals_hit == [2, 5]  # detection at each completion

    def test_total_transition_function(self):
        dfa = compile_pattern(parse_pattern("a ; b"), ABC)
        for q in range(dfa.n_states):
            for s in ABC:
                assert (q, s) in dfa.delta

    def test_disjunction(self):
        dfa = compile_pattern(parse_pattern("a | b"), ABC)
        assert accepts(dfa, ["a"])
        assert accepts(dfa, ["b"])
        assert not accepts(dfa, ["c"])

    def test_star(self):
        dfa = compile_pattern(parse_pattern("a ; b* ; c"), ABC)
        assert accepts(dfa, ["a", "c"])
        assert accepts(dfa, ["a", "b", "b", "c"])
        assert not accepts(dfa, ["a", "b"])

    def test_symbol_outside_alphabet(self):
        with pytest.raises(ValueError):
            compile_pattern(parse_pattern("z"), ABC)

    def test_step_unknown_symbol(self):
        dfa = compile_pattern(parse_pattern("a"), ABC)
        with pytest.raises(ValueError):
            dfa.step(dfa.start, "z")

    @given(st.lists(st.sampled_from(ABC), min_size=0, max_size=12))
    @settings(max_examples=60)
    def test_unanchored_matches_suffix_property(self, symbols):
        """Sigma*R DFA accepts iff some suffix matches R (here R=ab)."""
        dfa = compile_pattern(parse_pattern("a ; b"), ABC)
        expected = len(symbols) >= 2 and symbols[-2:] == ["a", "b"]
        assert accepts(dfa, symbols) == expected


class TestDistributions:
    def test_empirical(self):
        probs = empirical_distribution(["a", "a", "b"], ABC)
        assert probs["a"] > probs["b"] > 0
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_empirical_rejects_foreign(self):
        with pytest.raises(ValueError):
            empirical_distribution(["z"], ABC)

    def test_conditional_order1(self):
        table = conditional_distribution(["a", "b", "a", "b", "a", "b"], ABC, 1)
        assert table[("a",)]["b"] > table[("a",)]["a"]

    def test_conditional_rejects_order0(self):
        with pytest.raises(ValueError):
            conditional_distribution(["a"], ABC, 0)


class TestPMC:
    def test_iid_pmc_is_stochastic(self):
        dfa = compile_pattern(parse_pattern("a ; c ; c"), ABC)
        pmc = build_pmc_iid(dfa, {"a": 0.5, "b": 0.3, "c": 0.2})
        assert pmc.is_stochastic()
        assert pmc.n_states == dfa.n_states

    def test_iid_pmc_needs_full_distribution(self):
        dfa = compile_pattern(parse_pattern("a"), ABC)
        with pytest.raises(ValueError):
            build_pmc_iid(dfa, {"a": 1.0})

    def test_markov_pmc_is_stochastic(self):
        dfa = compile_pattern(parse_pattern("a ; c"), ABC)
        table = conditional_distribution(list("abcabcaab"), ABC, 1)
        pmc = build_pmc_markov(dfa, table, 1)
        assert pmc.is_stochastic()
        # States are (dfa_state, 1-symbol context) pairs.
        assert all(len(ctx) == 1 for _, ctx in pmc.states if ctx)

    def test_markov_pmc_state_space_grows_with_order(self):
        dfa = compile_pattern(parse_pattern("a ; c"), ABC)
        symbols = list("abcabcaabbcc") * 3
        pmc1 = build_pmc_markov(dfa, conditional_distribution(symbols, ABC, 1), 1)
        pmc2 = build_pmc_markov(dfa, conditional_distribution(symbols, ABC, 2), 2)
        assert pmc2.n_states > pmc1.n_states


class TestWaitingTimes:
    def make_pmc(self, p_a=0.5, p_b=0.3, p_c=0.2):
        dfa = compile_pattern(parse_pattern("a ; c ; c"), ABC)
        return build_pmc_iid(dfa, {"a": p_a, "b": p_b, "c": p_c}), dfa

    def test_distribution_sums_below_one(self):
        pmc, dfa = self.make_pmc()
        w = waiting_time_distribution(pmc, pmc.state_index(dfa.start, ()), horizon=50)
        assert 0.0 < w.sum() <= 1.0 + 1e-9
        assert (w >= 0).all()

    def test_minimum_steps_respected(self):
        """From the start, 'acc' needs at least 3 steps: w(1) = w(2) = 0."""
        pmc, dfa = self.make_pmc()
        w = waiting_time_distribution(pmc, pmc.state_index(dfa.start, ()), horizon=10)
        assert w[0] == pytest.approx(0.0)
        assert w[1] == pytest.approx(0.0)
        assert w[2] == pytest.approx(0.5 * 0.2 * 0.2)

    def test_distribution_converges_to_one(self):
        pmc, dfa = self.make_pmc()
        w = waiting_time_distribution(pmc, pmc.state_index(dfa.start, ()), horizon=2000)
        assert w.sum() == pytest.approx(1.0, abs=1e-6)

    def test_nearly_complete_state_peaks_early(self):
        """A state one 'c' from acceptance has w(1) = P(c)."""
        pmc, dfa = self.make_pmc()
        state = dfa.step(dfa.step(dfa.start, "a"), "c")
        w = waiting_time_distribution(pmc, pmc.state_index(state, ()), horizon=10)
        assert w[0] == pytest.approx(0.2)

    def test_invalid_args(self):
        pmc, _ = self.make_pmc()
        with pytest.raises(ValueError):
            waiting_time_distribution(pmc, -1, 10)
        with pytest.raises(ValueError):
            waiting_time_distribution(pmc, 0, 0)


class TestForecastInterval:
    def test_smallest_window(self):
        w = np.array([0.0, 0.1, 0.6, 0.2, 0.1])
        interval = forecast_interval(w, threshold=0.5)
        assert (interval.start, interval.end) == (3, 3)
        assert interval.probability == pytest.approx(0.6)

    def test_wider_threshold_wider_interval(self):
        w = np.array([0.05, 0.15, 0.4, 0.2, 0.1, 0.05])
        narrow = forecast_interval(w, 0.4)
        wide = forecast_interval(w, 0.8)
        assert wide.length > narrow.length

    def test_unreachable_threshold(self):
        assert forecast_interval(np.array([0.1, 0.1]), 0.9) is None

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            forecast_interval(np.array([1.0]), 0.0)


def periodic_events(n=400, period=6):
    """A highly regular stream: 'a' then 'c','c' every `period` events."""
    symbols = []
    for i in range(n):
        phase = i % period
        if phase == 0:
            symbols.append("a")
        elif phase in (1, 2):
            symbols.append("c")
        else:
            symbols.append("b")
    return [SimpleEvent(s, float(i)) for i, s in enumerate(symbols)]


class TestWayebEngine:
    def test_detects_pattern(self):
        engine = WayebEngine(parse_pattern("a ; c ; c"), ABC, order=1, threshold=0.3)
        events = periodic_events()
        engine.train([e.symbol for e in events[:200]])
        run = engine.run(events[200:])
        assert len(run.detections) > 0

    def test_untrained_raises(self):
        engine = WayebEngine(parse_pattern("a"), ABC)
        with pytest.raises(RuntimeError):
            engine.run([SimpleEvent("a", 0.0)])

    def test_forecasts_scored(self):
        engine = WayebEngine(parse_pattern("a ; c ; c"), ABC, order=1, threshold=0.4, horizon=20)
        events = periodic_events()
        engine.train([e.symbol for e in events[:200]])
        run = engine.run(events[200:])
        report = score_forecasts(run, len(events) - 200)
        assert report.scored > 0
        assert 0.0 <= report.precision <= 1.0

    def test_predictable_stream_high_precision(self):
        """On a deterministic periodic stream, forecasting should be near-perfect."""
        engine = WayebEngine(parse_pattern("a ; c ; c"), ABC, order=2, threshold=0.8, horizon=20)
        events = periodic_events(800)
        engine.train([e.symbol for e in events[:400]])
        run = engine.run(events[400:])
        report = score_forecasts(run, 400)
        assert report.precision > 0.9

    def test_iid_order_supported(self):
        engine = WayebEngine(parse_pattern("a ; c ; c"), ABC, order=0, threshold=0.2, horizon=40)
        events = periodic_events()
        engine.train([e.symbol for e in events[:200]])
        run = engine.run(events[200:])
        assert run.events_processed == 200


class TestEventMapping:
    def test_heading_quadrants(self):
        assert heading_quadrant(0.0) == CIH_NORTH
        assert heading_quadrant(90.0) == CIH_EAST
        assert heading_quadrant(180.0) == CIH_SOUTH
        assert heading_quadrant(350.0) == CIH_NORTH

    def test_north_to_south_reversal_detection(self):
        dfa = compile_pattern(north_to_south_reversal(), HEADING_ALPHABET)
        assert accepts(dfa, [CIH_NORTH, CIH_NORTH, CIH_EAST, CIH_SOUTH])
        assert accepts(dfa, ["other", CIH_NORTH, CIH_SOUTH])
        assert not accepts(dfa, [CIH_NORTH, "other", CIH_SOUTH])  # iteration broken by 'other'
