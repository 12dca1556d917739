"""The noise-floor estimator: every timing is a sum or quantile of unit floors.

A *unit* is one timed call (or one timed loop over a poll's input) that
does byte-identical work in every repetition: ``("setup", 0)``,
``("poll", j)``, ``("ingest", k)``, ``("query", q)``, or a stage-replay
unit such as ``("insitu.clean", j)``. Interference from the shared host
can only add time to a unit, so the minimum of its wall time across the
R repetitions — its floor — converges on the undisturbed cost, and
converges much faster than a median of repetition totals does (README,
"Estimator"). Nothing here looks at a single shot or at a median across
repetitions, except ``rep_median_over_floor``, which reports how
disturbed the run was and is never gated.
"""

from __future__ import annotations

import statistics
from typing import Hashable, Iterable, Mapping

Unit = tuple[str, int]
UnitTable = list[Mapping[Unit, float]]   # one {unit: seconds} row per repetition


def unit_floors(table: UnitTable, extra: Mapping[Unit, Iterable[float]] | None = None) -> dict[Unit, float]:
    """Per-unit minimum across repetitions (plus ``extra`` samples of a unit).

    Every repetition must have timed exactly the same units; a missing or
    additional unit means the repetitions did different work, and a floor
    across them would be meaningless.
    """
    if not table:
        raise ValueError("no repetitions to take floors over")
    keys = set(table[0])
    for r, row in enumerate(table[1:], start=1):
        if set(row) != keys:
            raise ValueError(f"repetition {r} timed different units than repetition 0")
    floors = {unit: min(row[unit] for row in table) for unit in table[0]}
    for unit, samples in (extra or {}).items():
        floors[unit] = min([floors[unit], *samples]) if unit in floors else min(samples)
    return floors


def of_kind(values: Mapping[Unit, float], kind: Hashable) -> list[float]:
    """The values of one kind of unit, in index order."""
    return [v for (k, _), v in sorted(values.items()) if k == kind]


def total(values: Mapping[Unit, float], kind: Hashable) -> float:
    return sum(of_kind(values, kind))


def quantile(samples: list[float], q: float) -> float:
    """Linear-interpolated quantile; the median for ``q=0.5``. 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end_metrics(floors: Mapping[Unit, float], n_fixes: int, peak_rss_mb: float) -> dict[str, float]:
    """The six end-to-end metrics, from unit floors (and the RSS high-water mark)."""
    return {
        "fixes_per_s": n_fixes / total(floors, "poll"),
        "poll_p50_ms": quantile(of_kind(floors, "poll"), 0.5) * 1e3,
        "kg_ingest_s": total(floors, "ingest"),
        "kg_query_p50_ms": quantile(of_kind(floors, "query"), 0.5) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": floors[("setup", 0)],
    }


def rep_median_over_floor(table: UnitTable, kind: Hashable = "poll") -> float:
    """Median repetition's total of one unit kind over the floor total: 1.0 on a quiet host."""
    floors = unit_floors(table)
    return statistics.median(total(row, kind) for row in table) / total(floors, kind)
