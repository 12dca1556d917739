"""Complex event recognition & forecasting (S10): the Wayeb surrogate."""

from .automaton import DFA, compile_pattern
from .evaluation import PrecisionPoint, points_by_order, precision_sweep
from .events import (
    CIH_EAST,
    CIH_NORTH,
    CIH_SOUTH,
    CIH_WEST,
    HEADING_ALPHABET,
    OTHER,
    TURN_ALPHABET,
    SimpleEvent,
    conditional_distribution,
    empirical_distribution,
    turn_event_stream,
    heading_quadrant,
    symbol_sequence,
)
from .markov import PatternMarkovChain, build_pmc_iid, build_pmc_markov
from .pattern import (
    Or,
    Pattern,
    PatternSyntaxError,
    Seq,
    Star,
    Sym,
    disj,
    parse_pattern,
    plus,
    seq,
    star,
)
from .waiting import (
    ForecastInterval,
    all_waiting_time_distributions,
    forecast_interval,
    forecast_table,
    waiting_time_distribution,
)
from .wayeb import Detection, Forecast, PrecisionReport, WayebEngine, WayebRun, score_forecasts

__all__ = [
    "CIH_EAST",
    "CIH_NORTH",
    "CIH_SOUTH",
    "CIH_WEST",
    "DFA",
    "Detection",
    "Forecast",
    "ForecastInterval",
    "HEADING_ALPHABET",
    "OTHER",
    "Or",
    "Pattern",
    "PatternMarkovChain",
    "PatternSyntaxError",
    "PrecisionPoint",
    "PrecisionReport",
    "Seq",
    "SimpleEvent",
    "Star",
    "Sym",
    "TURN_ALPHABET",
    "WayebEngine",
    "WayebRun",
    "all_waiting_time_distributions",
    "build_pmc_iid",
    "build_pmc_markov",
    "compile_pattern",
    "conditional_distribution",
    "disj",
    "empirical_distribution",
    "forecast_interval",
    "forecast_table",
    "heading_quadrant",
    "parse_pattern",
    "plus",
    "points_by_order",
    "precision_sweep",
    "score_forecasts",
    "seq",
    "star",
    "symbol_sequence",
    "turn_event_stream",
    "waiting_time_distribution",
]


def north_to_south_reversal() -> Pattern:
    """The paper's Figure-8 pattern: R = CIH_N (CIH_N + CIH_E)* CIH_S."""
    return seq(Sym(CIH_NORTH), star(disj(Sym(CIH_NORTH), Sym(CIH_EAST))), Sym(CIH_SOUTH))


__all__.append("north_to_south_reversal")
