"""The Synopses Generator: single-pass critical-point detection (Section 4.2.2).

Instead of retaining every incoming position, the generator drops any
predictable position along "normal-motion" segments and keeps only the
*critical points* that signify changes in actual motion patterns:

``start``/``end`` (trajectory boundaries), ``stop_start``/``stop_end``,
``slow_start``/``slow_end``, ``turn`` (change in heading), ``speed_change``,
``gap_start``/``gap_end`` (communication gaps), ``altitude_change``,
``takeoff`` and ``landing``.

The detector is strictly single-pass with O(window) state per entity,
enhanced (as in the paper) with a noise filter that discards fixes
implying physically impossible motion. Emitted synopses can be fed
directly to the event-recognition module (Section 6) as its low-level
event stream, and to the RDFizers as ``semantic nodes``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..geo import PositionFix, heading_difference
from ..geo.geometry import initial_bearing_deg

from .config import SynopsesConfig

#: Critical point types, in the paper's taxonomy.
CRITICAL_TYPES = (
    "start",
    "end",
    "stop_start",
    "stop_end",
    "slow_start",
    "slow_end",
    "turn",
    "speed_change",
    "gap_start",
    "gap_end",
    "altitude_change",
    "takeoff",
    "landing",
)


@dataclass(frozen=True, slots=True)
class CriticalPoint:
    """One synopsis node: a fix judged critical, with its type and context."""

    fix: PositionFix
    kind: str
    detail: dict = field(default_factory=dict, compare=False)

    def __reduce__(self):
        # Positional pickle: skips the generated __getstate__'s per-object fields() walk.
        return (type(self), (self.fix, self.kind, self.detail))

    @property
    def entity_id(self) -> str:
        return self.fix.entity_id

    @property
    def t(self) -> float:
        return self.fix.t

    def __repr__(self) -> str:
        return f"CriticalPoint({self.kind}, {self.entity_id}, t={self.t:.0f})"


@dataclass(slots=True)
class _EntityState:
    """Per-entity single-pass detection state."""

    last_fix: PositionFix | None = None
    window: deque = field(default_factory=deque)   # recent (t, lon, lat, speed) course samples
    stop_since: float | None = None
    stop_candidate: PositionFix | None = None
    in_stop: bool = False
    slow_since: float | None = None
    slow_candidate: PositionFix | None = None
    in_slow: bool = False
    last_emit: dict = field(default_factory=dict)  # kind -> t of last emission
    was_airborne: bool | None = None
    noise_dropped: int = 0
    seen: int = 0


class SynopsesGenerator:
    """Streaming critical-point detector over a (keyed) fix stream."""

    def __init__(self, config: SynopsesConfig | None = None, registry=None):
        self.config = config or SynopsesConfig()
        self._states: dict[str, _EntityState] = {}
        self.points_in = 0
        self.points_out = 0
        self.noise_dropped = 0
        if registry is not None:
            # Callback gauges over counts the generator already tracks: zero
            # hot-path cost, and the paper's compression claim is readable
            # live under the ``synopses.*`` namespace.
            registry.gauge("synopses.fixes_in", fn=lambda: self.points_in)
            registry.gauge("synopses.points_out", fn=lambda: self.points_out)
            registry.gauge("synopses.noise_dropped", fn=lambda: self.noise_dropped)
            registry.gauge("synopses.compression_ratio", fn=self.compression_ratio)

    # -- public API -----------------------------------------------------------

    def process(self, fix: PositionFix) -> list[CriticalPoint]:
        """Feed one fix; returns the critical points it produces (often none)."""
        state = self._states.setdefault(fix.entity_id, _EntityState())
        self.points_in += 1
        state.seen += 1
        out = self._step(state, fix)
        self.points_out += len(out)
        return out

    def process_stream(self, fixes: Iterable[PositionFix]) -> Iterator[CriticalPoint]:
        """Run over a whole stream; callers should finish with :meth:`flush`."""
        for fix in fixes:
            yield from self.process(fix)

    def flush(self) -> list[CriticalPoint]:
        """Emit the trailing ``end`` point of every live trajectory."""
        out: list[CriticalPoint] = []
        for state in self._states.values():
            if state.last_fix is not None:
                out.append(CriticalPoint(state.last_fix, "end"))
        self.points_out += len(out)
        return out

    def compression_ratio(self) -> float:
        """Fraction of the input stream that was dropped (0..1)."""
        if self.points_in == 0:
            return 0.0
        return 1.0 - self.points_out / self.points_in

    # -- detection ------------------------------------------------------------

    def _step(self, state: _EntityState, fix: PositionFix) -> list[CriticalPoint]:
        cfg = self.config
        prev = state.last_fix
        out: list[CriticalPoint] = []

        # Noise filter: reject fixes implying impossible motion; they would
        # otherwise masquerade as turns/speed changes.
        if prev is not None and fix.t > prev.t:
            implied = prev.distance_to(fix) / (fix.t - prev.t)
            if implied > cfg.max_speed_ms:
                state.noise_dropped += 1
                self.noise_dropped += 1
                return out

        if prev is None:
            out.append(CriticalPoint(fix, "start"))
            self._push_window(state, fix)
            state.last_fix = fix
            state.was_airborne = fix.alt > cfg.ground_altitude_m
            return out

        if fix.t <= prev.t:
            # Duplicate or regressing timestamp: ignore silently (the quality
            # layer flags these; here we only guard state consistency).
            state.noise_dropped += 1
            self.noise_dropped += 1
            return out

        # Communication gap.
        if fix.t - prev.t > cfg.gap_threshold_s:
            out.append(CriticalPoint(prev, "gap_start", {"gap_s": fix.t - prev.t}))
            out.append(CriticalPoint(fix, "gap_end", {"gap_s": fix.t - prev.t}))
            # Reset course context: the old window no longer describes recent motion.
            state.window.clear()

        speed = fix.speed if fix.speed is not None else prev.distance_to(fix) / (fix.t - prev.t)

        out.extend(self._detect_stop(state, fix, speed))
        out.extend(self._detect_slow(state, fix, speed))
        if not state.in_stop:
            out.extend(self._detect_turn(state, fix))
            out.extend(self._detect_speed_change(state, fix, speed))
        out.extend(self._detect_vertical(state, fix, prev))

        self._push_window(state, fix)
        state.last_fix = fix
        return out

    def _push_window(self, state: _EntityState, fix: PositionFix) -> None:
        cfg = self.config
        speed = fix.speed if fix.speed is not None else 0.0
        state.window.append((fix.t, fix.lon, fix.lat, speed))
        horizon = fix.t - cfg.course_window_s
        while state.window and state.window[0][0] < horizon:
            state.window.popleft()

    def _armed(self, state: _EntityState, kind: str, t: float) -> bool:
        last = state.last_emit.get(kind)
        return last is None or t - last >= self.config.min_reemit_s

    def _emit(self, state: _EntityState, fix: PositionFix, kind: str, **detail) -> CriticalPoint:
        state.last_emit[kind] = fix.t
        return CriticalPoint(fix, kind, dict(detail))

    def _detect_stop(self, state: _EntityState, fix: PositionFix, speed: float) -> list[CriticalPoint]:
        cfg = self.config
        out: list[CriticalPoint] = []
        if speed < cfg.stop_speed_ms:
            if state.stop_since is None:
                state.stop_since = fix.t
                state.stop_candidate = fix
            elif not state.in_stop and fix.t - state.stop_since >= cfg.stop_min_duration_s:
                state.in_stop = True
                anchor = state.stop_candidate or fix
                out.append(self._emit(state, anchor, "stop_start"))
        else:
            if state.in_stop:
                out.append(self._emit(state, fix, "stop_end", duration_s=fix.t - (state.stop_since or fix.t)))
            state.in_stop = False
            state.stop_since = None
            state.stop_candidate = None
        return out

    def _detect_slow(self, state: _EntityState, fix: PositionFix, speed: float) -> list[CriticalPoint]:
        cfg = self.config
        out: list[CriticalPoint] = []
        is_slow = cfg.stop_speed_ms <= speed < cfg.slow_speed_ms
        if is_slow:
            if state.slow_since is None:
                state.slow_since = fix.t
                state.slow_candidate = fix
            elif not state.in_slow and fix.t - state.slow_since >= cfg.slow_min_duration_s:
                state.in_slow = True
                anchor = state.slow_candidate or fix
                out.append(self._emit(state, anchor, "slow_start"))
        else:
            if state.in_slow:
                out.append(self._emit(state, fix, "slow_end", duration_s=fix.t - (state.slow_since or fix.t)))
            state.in_slow = False
            state.slow_since = None
            state.slow_candidate = None
        return out

    def _mean_course(self, state: _EntityState) -> float | None:
        """Bearing of the mean velocity vector over the recent course window."""
        if len(state.window) < 2:
            return None
        t0, lon0, lat0, _ = state.window[0]
        t1, lon1, lat1, _ = state.window[-1]
        if t1 <= t0:
            return None
        if abs(lon1 - lon0) < 1e-9 and abs(lat1 - lat0) < 1e-9:
            return None
        return initial_bearing_deg(lon0, lat0, lon1, lat1)

    def _detect_turn(self, state: _EntityState, fix: PositionFix) -> list[CriticalPoint]:
        cfg = self.config
        course = self._mean_course(state)
        heading = fix.heading
        if course is None or heading is None:
            return []
        diff = heading_difference(heading, course)
        if diff > cfg.turn_threshold_deg and self._armed(state, "turn", fix.t):
            return [self._emit(state, fix, "turn", heading=heading, course=course, delta_deg=diff)]
        return []

    def _detect_speed_change(self, state: _EntityState, fix: PositionFix, speed: float) -> list[CriticalPoint]:
        cfg = self.config
        speeds = [s for (_, _, _, s) in state.window]
        if not speeds:
            return []
        mean_speed = sum(speeds) / len(speeds)
        if mean_speed < 0.1:
            return []
        ratio = abs(speed - mean_speed) / mean_speed
        if ratio > cfg.speed_change_ratio and self._armed(state, "speed_change", fix.t):
            return [self._emit(state, fix, "speed_change", speed=speed, mean_speed=mean_speed, ratio=ratio)]
        return []

    def _detect_vertical(self, state: _EntityState, fix: PositionFix, prev: PositionFix) -> list[CriticalPoint]:
        cfg = self.config
        out: list[CriticalPoint] = []
        airborne = fix.alt > cfg.ground_altitude_m
        if state.was_airborne is not None:
            if airborne and not state.was_airborne:
                # Latest on-ground location: the previous fix.
                out.append(self._emit(state, prev, "takeoff"))
            elif not airborne and state.was_airborne:
                # First on-ground location: this fix.
                out.append(self._emit(state, fix, "landing"))
        state.was_airborne = airborne
        vrate = fix.vrate
        if vrate is None and fix.t > prev.t:
            vrate = (fix.alt - prev.alt) / (fix.t - prev.t)
        if vrate is not None and abs(vrate) > cfg.altitude_rate_ms and self._armed(state, "altitude_change", fix.t):
            out.append(self._emit(state, fix, "altitude_change", vrate=vrate))
        return out
