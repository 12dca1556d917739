"""Online data-quality assessment and cleaning (Sections 3 and 4.2.1).

The real-time layer performs "online data cleaning of erroneous data"
before trajectory reconstruction. This module implements the standard
surveillance-stream checks, derived from the movement-data-quality
typology of Andrienko et al. (paper's reference [5]):

* out-of-range coordinates,
* non-finite (NaN, +-inf) timestamps,
* non-monotonic or duplicate timestamps per entity,
* physically impossible implied speed (teleport outliers),
* implausible reported speed for the entity class,
* stale duplicates (same position re-broadcast after a long time).

Each check flags rather than silently drops; the cleaning operator then
drops flagged fixes and counts them, so quality metrics stay observable
(the VA quality dashboard consumes those counters).

:func:`clean_stream` is the per-fix operator; :func:`clean_batch` is the
same over one poll read as columns: a fix whose every check a column
kernel clears passes without a call, every other goes through
:func:`check_fix` — the screen can only say "no issue here".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..geo import FixColumns, PositionFix
from ..geo.columns import LAT, LON, SPEED, T
from ..geo.kernels import SCREEN_SLACK, haversine_m_batch

#: Issue labels attached to fixes.
ISSUE_COORD_RANGE = "coord_out_of_range"
ISSUE_NON_FINITE_TIME = "non_finite_time"
ISSUE_TIME_ORDER = "non_monotonic_time"
ISSUE_DUPLICATE_TIME = "duplicate_timestamp"
ISSUE_IMPLIED_SPEED = "impossible_implied_speed"
ISSUE_REPORTED_SPEED = "implausible_reported_speed"

ALL_ISSUES = (
    ISSUE_COORD_RANGE,
    ISSUE_NON_FINITE_TIME,
    ISSUE_TIME_ORDER,
    ISSUE_DUPLICATE_TIME,
    ISSUE_IMPLIED_SPEED,
    ISSUE_REPORTED_SPEED,
)


@dataclass(frozen=True, slots=True)
class QualityConfig:
    """Thresholds of the quality checks."""

    max_implied_speed_ms: float = 40.0    # ~78 kn: nothing at sea moves faster
    max_reported_speed_ms: float = 40.0
    lon_range: tuple[float, float] = (-180.0, 180.0)
    lat_range: tuple[float, float] = (-90.0, 90.0)


@dataclass(slots=True)
class QualityState:
    """Per-entity memory for sequential checks."""

    last_fix: PositionFix | None = None


@dataclass(slots=True)
class QualityReport:
    """Aggregated cleaning counters for one run."""

    seen: int = 0
    passed: int = 0
    flagged: dict[str, int] = field(default_factory=dict)

    def flag(self, issue: str) -> None:
        self.flagged[issue] = self.flagged.get(issue, 0) + 1

    @property
    def dropped(self) -> int:
        return self.seen - self.passed

    def drop_rate(self) -> float:
        return self.dropped / self.seen if self.seen else 0.0


def check_fix(fix: PositionFix, state: QualityState, config: QualityConfig) -> list[str]:
    """All quality issues of one fix, given the per-entity state.

    The state is updated only by :func:`clean_stream` / the operator after
    deciding whether the fix survives, so a rejected outlier does not poison
    the implied-speed baseline for subsequent good fixes.
    """
    issues: list[str] = []
    lon_lo, lon_hi = config.lon_range
    lat_lo, lat_hi = config.lat_range
    if not (lon_lo <= fix.lon <= lon_hi and lat_lo <= fix.lat <= lat_hi):
        issues.append(ISSUE_COORD_RANGE)
    if fix.speed is not None and fix.speed > config.max_reported_speed_ms:
        issues.append(ISSUE_REPORTED_SPEED)
    prev = state.last_fix
    if not math.isfinite(fix.t):
        # Every comparison below is False for NaN and the implied speed of
        # an infinite gap is 0, so without this a NaN/inf t would pass —
        # and become the baseline no later fix can be ordered against.
        issues.append(ISSUE_NON_FINITE_TIME)
    elif prev is not None:
        if fix.t < prev.t:
            issues.append(ISSUE_TIME_ORDER)
        elif fix.t == prev.t:
            issues.append(ISSUE_DUPLICATE_TIME)
        else:
            implied = prev.distance_to(fix) / (fix.t - prev.t)
            if implied > config.max_implied_speed_ms:
                issues.append(ISSUE_IMPLIED_SPEED)
    return issues


def clean_stream(
    fixes: Iterable[PositionFix],
    config: QualityConfig | None = None,
    report: QualityReport | None = None,
) -> Iterator[PositionFix]:
    """Yield only the fixes that pass all checks; counts go to ``report``."""
    cfg = config or QualityConfig()
    rep = report if report is not None else QualityReport()
    states: dict[str, QualityState] = {}
    for fix in fixes:
        state = states.setdefault(fix.entity_id, QualityState())
        rep.seen += 1
        issues = check_fix(fix, state, cfg)
        if issues:
            for issue in issues:
                rep.flag(issue)
            continue
        state.last_fix = fix
        rep.passed += 1
        yield fix


def _cleared(cols: FixColumns, cfg: QualityConfig) -> np.ndarray:
    """The screen: True where column kernels prove :func:`check_fix` finds
    no issue *if the row's predecessor passed* — and, so that it did,
    False from an entity's first uncleared row on."""
    if cols.odd or not cols.valid[[T, LON, LAT]].all():
        return np.zeros(len(cols), dtype=bool)
    t, lon, lat, speed = cols.columns[[T, LON, LAT, SPEED]]
    (lon_lo, lon_hi), (lat_lo, lat_hi) = cfg.lon_range, cfg.lat_range
    prev = cols.predecessors
    with np.errstate(all="ignore"):
        implied = haversine_m_batch(lon[prev], lat[prev], lon, lat) / (t - t[prev])
        clear = (
            (lon_lo <= lon) & (lon <= lon_hi) & (lat_lo <= lat) & (lat <= lat_hi)
            & (~cols.valid[SPEED] | (speed <= cfg.max_reported_speed_ms))
            & np.isfinite(t)
            & ((prev < 0) | ((t > t[prev]) & (implied * (1.0 + SCREEN_SLACK) < cfg.max_implied_speed_ms)))
        )
    # Uncleared rows so far in the entity's run, the row's own included.
    order, starts, counts = cols.runs
    unclear = ~clear[order]
    behind = np.cumsum(unclear)
    clear[order] = behind == np.repeat(behind[starts] - unclear[starts], counts)
    return clear


def clean_batch(
    fixes: Sequence[PositionFix],
    config: QualityConfig | None = None,
    report: QualityReport | None = None,
    columns: FixColumns | None = None,
) -> tuple[list[PositionFix], np.ndarray]:
    """:func:`clean_stream` over one poll: the fixes that pass and their
    row numbers in the poll; counts go to ``report``. With the poll's
    ``columns`` the poll is screened first; without, every fix is checked."""
    cfg = config or QualityConfig()
    rep = report if report is not None else QualityReport()
    n = len(fixes)
    keep = np.ones(n, dtype=bool)
    unclear, prev = range(n), None
    if columns is not None:
        unclear, prev = np.flatnonzero(~_cleared(columns, cfg)).tolist(), columns.predecessors.tolist()
    states: dict[str, QualityState] = {}
    for i in unclear:
        fix = fixes[i]
        state = states.get(fix.entity_id)
        if state is None:
            # The entity's first uncleared row: the baseline is its
            # predecessor in the poll, which was cleared.
            before = fixes[prev[i]] if prev and prev[i] >= 0 else None
            state = states[fix.entity_id] = QualityState(before)
        issues = check_fix(fix, state, cfg)
        if issues:
            for issue in issues:
                rep.flag(issue)
            keep[i] = False
        else:
            state.last_fix = fix
    rows = np.flatnonzero(keep)
    rep.seen += n
    rep.passed += len(rows)
    return [fixes[i] for i in rows.tolist()], rows
