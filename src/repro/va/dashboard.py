"""The real-time situation-monitoring dashboard (Figure 13), text edition.

The real-time VA layer "visually encodes a selectable subset of
information layers from the enriched stream": pre-processed positions
(synopses), context (areas, weather), predictions, and detected or
forecast events. This module renders those layers as a terminal frame:
an ASCII density map of current positions with region overlays, counters
per information layer, and the most recent alerts — driven entirely by
the same streams the rest of the system exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..geo import BBox, EquiGrid, PositionFix
from ..obs import HealthMonitor, MetricsRegistry, consumer_lags, operator_rates
from ..synopses import CriticalPoint

#: Density glyphs, lightest to darkest.
_GLYPHS = " .:-=+*#%@"


@dataclass
class DashboardState:
    """The live state the dashboard renders."""

    last_position: dict[str, PositionFix] = field(default_factory=dict)
    recent_events: list[str] = field(default_factory=list)
    max_recent: int = 8


class Dashboard:
    """Renders DashboardState frames over a fixed geographic extent.

    The information-layer counters live in the pipeline's
    :class:`~repro.obs.MetricsRegistry` (``dashboard.*`` counters), and
    the frame's observability section — the attribution table and broker
    consumer lag — is rendered straight from registry contents. The frame
    leads with the :class:`~repro.obs.HealthMonitor`'s pipeline health
    line (system state plus any non-``OK`` components), as read.
    """

    def __init__(self, bbox: BBox, registry: MetricsRegistry, health: HealthMonitor):
        self.bbox = bbox
        #: The density map: 64 columns by 20 rows of the extent.
        self.grid = EquiGrid(bbox, 64, 20)
        self.registry = registry
        self.health = health
        self.state = DashboardState()

    def _bump(self, counter: str, by: int = 1) -> None:
        self.registry.counter(f"dashboard.{counter}").inc(by)

    # -- stream feeding -----------------------------------------------------------

    def ingest_fix(self, fix: PositionFix) -> None:
        self.state.last_position[fix.entity_id] = fix
        self._bump("positions")

    def ingest_fixes(self, fixes: Sequence[PositionFix]) -> None:
        """:meth:`ingest_fix` for a batch in stream order, counted once."""
        self.state.last_position.update((fix.entity_id, fix) for fix in fixes)
        self._bump("positions", len(fixes))

    def ingest_critical_point(self, point: CriticalPoint) -> None:
        self._bump("synopses")
        if point.kind in ("gap_start", "stop_start", "turn"):
            self._add_event(f"[{point.t:>8.0f}] {point.kind:<12} {point.entity_id}")

    def ingest_alert(self, t: float, label: str) -> None:
        self._add_event(f"[{t:>8.0f}] ALERT        {label}")
        self._bump("alerts")

    def _add_event(self, label: str) -> None:
        self.state.recent_events.append(label)
        if len(self.state.recent_events) > self.state.max_recent:
            del self.state.recent_events[: len(self.state.recent_events) - self.state.max_recent]
        self._bump("events")

    # -- rendering ---------------------------------------------------------------

    def render_map(self) -> list[str]:
        """The ASCII density map of current entity positions."""
        counts = [[0] * self.grid.cols for _ in range(self.grid.rows)]
        for fix in self.state.last_position.values():
            col, row = self.grid.locate(fix.lon, fix.lat)
            counts[row][col] += 1
        peak = max((c for row in counts for c in row), default=0)
        lines = []
        for row in reversed(range(self.grid.rows)):   # north at the top
            chars = []
            for col in range(self.grid.cols):
                c = counts[row][col]
                if peak == 0 or c == 0:
                    chars.append(_GLYPHS[0])
                else:
                    chars.append(_GLYPHS[min(len(_GLYPHS) - 1, 1 + (len(_GLYPHS) - 2) * c // peak)])
            lines.append("".join(chars))
        return lines

    def _counter_items(self) -> list[tuple[str, int]]:
        """The information-layer counters, by name."""
        prefix = "dashboard."
        return [(n[len(prefix):], v) for n, v in self.registry.counters(prefix).items()]

    def render_metrics(self) -> list[str]:
        """The observability panel: the attribution table and consumer lag,
        rendered from live registry contents."""
        lines: list[str] = []
        table = operator_rates(self.registry)
        if table:
            lines.append("operators (records/s | p50/p95 ms | ms, share of the call):")
            lines.extend(_table_lines(table, "  "))
        lags = consumer_lags(self.registry)
        if lags:
            lines.append("consumer lag:")
            width = max(len(n) for n in lags)
            lines.extend(f"  {name:<{width}}  {lag:>10,}" for name, lag in lags.items())
        return lines

    def render_health(self) -> list[str]:
        """The pipeline-health line: system state plus unhealthy components,
        as the last evaluation left them."""
        parts = [f"health: {self.health.system_state()}"]
        parts.extend(
            f"{component}={state}"
            for component, state in sorted(self.health.states().items())
            if state != "OK"
        )
        return ["  ".join(parts)]

    def render_frame(self, t: float | None = None) -> str:
        """One full dashboard frame as text."""
        header = "== situation monitor =="
        if t is not None:
            header += f"  t={t:.0f}s"
        counter_line = "  ".join(f"{k}={v}" for k, v in self._counter_items()) or "(no data)"
        body = self.render_map()
        events = self.state.recent_events or ["(no events)"]
        parts = [header]
        parts.extend(self.render_health())
        parts.extend([counter_line, "+" + "-" * self.grid.cols + "+"])
        parts.extend("|" + line + "|" for line in body)
        parts.append("+" + "-" * self.grid.cols + "+")
        parts.append("recent events:")
        parts.extend("  " + e for e in events)
        metrics = self.render_metrics()
        if metrics:
            parts.append("")
            parts.extend(metrics)
        return "\n".join(parts)

    def entity_count(self) -> int:
        return len(self.state.last_position)


def _table_lines(rows: dict, indent: str) -> Iterator[str]:
    """An attribution table's rows, one line each, a row's regions below it."""
    width = max(map(len, rows), default=0)
    for name, row in rows.items():
        share = f"{row['share']:.1%}" if "share" in row else ""
        share = f"s={row['serial_share']:.3f}" if "serial_share" in row else share
        rates = "" if "records_s" not in row else (
            f"{row['records_s']:>12,.0f} rec/s  in={row['records_in']:,} out={row['records_out']:,}"
            f"  p50={row['p50_ms']:.3f} p95={row['p95_ms']:.3f}"
        )
        yield f"{indent}{name:<{width}}  {row['seconds'] * 1e3:>9.3f} ms {share:>7}  {rates}".rstrip()
        yield from _table_lines(row.get("regions", {}), indent + "  ")
