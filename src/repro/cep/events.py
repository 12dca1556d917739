"""Low-level event streams for complex event processing (Section 6).

The CEP module consumes a stream of *symbols*: low-level events produced
by the synopses generator, each carrying extra attributes (vessel id,
speed, heading...). For the paper's Figure-8 experiment the relevant
mapping is from ``turn`` critical points to direction-annotated
``ChangeInHeading`` symbols (north/east/south/west), since the
``NorthToSouthReversal`` pattern is written over those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..synopses import CriticalPoint

#: The heading-quadrant symbols of the Figure-8 experiment.
CIH_NORTH = "cih_n"
CIH_EAST = "cih_e"
CIH_SOUTH = "cih_s"
CIH_WEST = "cih_w"
OTHER = "other"

HEADING_ALPHABET = (CIH_NORTH, CIH_EAST, CIH_SOUTH, CIH_WEST, OTHER)

#: The pure turn-event alphabet: the paper's Figure-8 experiment consumes a
#: stream of ChangeInHeading events only (each annotated with the heading).
TURN_ALPHABET = (CIH_NORTH, CIH_EAST, CIH_SOUTH, CIH_WEST)


@dataclass(frozen=True, slots=True)
class SimpleEvent:
    """One input event: a symbol with a timestamp and free-form attributes."""

    symbol: str
    t: float
    attributes: dict = field(default_factory=dict, compare=False)


def heading_quadrant(heading_deg: float) -> str:
    """Map a heading to its ChangeInHeading symbol (N/E/S/W quadrants)."""
    h = heading_deg % 360.0
    if h >= 315.0 or h < 45.0:
        return CIH_NORTH
    if h < 135.0:
        return CIH_EAST
    if h < 225.0:
        return CIH_SOUTH
    return CIH_WEST


def turn_event_stream(points: Iterable[CriticalPoint]) -> Iterator[SimpleEvent]:
    """The Figure-8 input: only ``turn`` critical points, heading-annotated."""
    for cp in points:
        if cp.kind == "turn" and cp.fix.heading is not None:
            yield SimpleEvent(
                heading_quadrant(cp.fix.heading),
                cp.t,
                {"entity_id": cp.entity_id, "heading": cp.fix.heading},
            )


def symbol_sequence(events: Iterable[SimpleEvent]) -> list[str]:
    """Just the symbols, in order."""
    return [e.symbol for e in events]


def empirical_distribution(symbols: Sequence[str], alphabet: Sequence[str]) -> dict[str, float]:
    """The i.i.d. symbol distribution of a training stream (Laplace-smoothed)."""
    counts = {a: 1.0 for a in alphabet}
    for s in symbols:
        if s not in counts:
            raise ValueError(f"symbol {s!r} outside the alphabet")
        counts[s] += 1.0
    total = sum(counts.values())
    return {a: c / total for a, c in counts.items()}


def conditional_distribution(
    symbols: Sequence[str], alphabet: Sequence[str], order: int
) -> dict[tuple[str, ...], dict[str, float]]:
    """P(next symbol | previous ``order`` symbols), Laplace-smoothed.

    Contexts never seen in training fall back to the smoothed uniform prior.
    The returned mapping is *total*: it contains every context that appeared,
    and callers should use :func:`lookup_conditional` for unseen contexts.
    """
    if order < 1:
        raise ValueError("order must be >= 1 (use empirical_distribution for i.i.d.)")
    counts: dict[tuple[str, ...], dict[str, float]] = {}
    for i in range(order, len(symbols)):
        context = tuple(symbols[i - order : i])
        row = counts.setdefault(context, {a: 1.0 for a in alphabet})
        row[symbols[i]] += 1.0
    return {
        ctx: {a: c / sum(row.values()) for a, c in row.items()}
        for ctx, row in counts.items()
    }


def lookup_conditional(
    table: dict[tuple[str, ...], dict[str, float]],
    context: tuple[str, ...],
    alphabet: Sequence[str],
) -> dict[str, float]:
    """The conditional row for a context, uniform when never observed."""
    row = table.get(context)
    if row is not None:
        return row
    uniform = 1.0 / len(alphabet)
    return {a: uniform for a in alphabet}
