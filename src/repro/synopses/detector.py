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

``process`` is the detector; ``process_many`` is the same over one poll
read as columns. Its screen holds no detection logic: it proves,
threshold by threshold and with a slack (``geo/kernels.py``), that a fix
is plain normal motion — no point, no state change beyond the course
window — and every fix it cannot clear goes through ``process``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..geo import FixColumns, PositionFix, heading_difference
from ..geo.columns import ALT, HEADING, LAT, LON, SPEED, T, VRATE
from ..geo.geometry import initial_bearing_deg
from ..geo.kernels import SCREEN_SLACK, haversine_m_batch, heading_difference_batch, initial_bearing_deg_batch

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


#: Below this mean speed of the course window a speed change is undefined.
_MIN_MEAN_SPEED_MS = 0.1
#: A course window whose ends are closer than this (degrees) has no course.
_NO_COURSE_DEG = 1e-9


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


class SynopsesGenerator:
    """Streaming critical-point detector over a (keyed) fix stream."""

    def __init__(self, config: SynopsesConfig | None = None, registry=None):
        self.config = config or SynopsesConfig()
        self._states: dict[str, _EntityState] = {}
        self.points_in = 0
        self.points_out = 0
        self.noise_dropped = 0
        if registry is not None:
            # What no counter carries: the fixes and points themselves are
            # counted by the owner's ``op.synopses.*`` probe.
            registry.gauge("synopses.noise_dropped", fn=lambda: self.noise_dropped)

    # -- public API -----------------------------------------------------------

    def process(self, fix: PositionFix) -> list[CriticalPoint]:
        """Feed one fix; returns the critical points it produces (often none)."""
        state = self._states.setdefault(fix.entity_id, _EntityState())
        self.points_in += 1
        out = self._step(state, fix)
        self.points_out += len(out)
        return out

    def process_many(self, fixes: Sequence[PositionFix], columns: FixColumns | None = None) -> list[CriticalPoint]:
        """Feed one poll in order: the critical points of a :meth:`process`
        loop, and the same state afterwards. With the poll's ``columns`` it
        is screened first; without, every fix is refined.

        Each entity's rows are walked once: a run of rows the screen
        cleared becomes one window update, every other row is refined by
        :meth:`process`. The screen's verdicts assume the entity moves
        normally from row to row, so once a refined row leaves it stopped,
        slow, behind a gap or noise-filtered, the rest of its rows are
        refined too.
        """
        cols, n = columns, len(fixes)
        if cols is None or not n or cols.odd or not cols.valid[[T, LON, LAT, ALT]].all():
            return [cp for fix in fixes for cp in self.process(fix)]
        order, starts, _ = cols.runs
        rows, bounds = order.tolist(), [*starts.tolist(), n]
        states, firsts = self._states, order[starts].tolist()
        # New entities enter the state table in arrival order, as flush() reads it.
        for row in sorted(row for row in firsts if fixes[row].entity_id not in states):
            states[fixes[row].entity_id] = _EntityState()
        run_states = [states[fixes[row].entity_id] for row in firsts]
        next_refined, continuous, samples = self._screen(cols, run_states)
        found: list[tuple[int, list[CriticalPoint]]] = []
        for state, k, end in zip(run_states, bounds, bounds[1:]):
            cruising = True     # the screen's premise holds up to row k
            while k < end:
                cleared = min(next_refined[k], end) if cruising else k
                if cleared > k:
                    self._extend_window(state, fixes[rows[cleared - 1]], samples[k:cleared])
                    k = cleared
                    continue
                fix = fixes[rows[k]]
                points = self.process(fix)
                if points:
                    found.append((rows[k], points))
                cruising = (
                    cruising and state.last_fix is fix and continuous[k]
                    and state.stop_since is None and state.slow_since is None
                )
                k += 1
        found.sort(key=lambda item: item[0])
        return [cp for _, points in found for cp in points]

    def _extend_window(self, state: _EntityState, last: PositionFix, samples: list[tuple]) -> None:
        """What a run of cleared fixes ending in ``last`` does to the state:
        as many :meth:`_push_window` calls, the evictions taken at once."""
        window = state.window
        window.extend(samples)
        horizon = last.t - self.config.course_window_s
        while window and window[0][0] < horizon:
            window.popleft()
        state.last_fix = last
        self.points_in += len(samples)

    def _screen(self, cols: FixColumns, run_states: list[_EntityState]) -> tuple[list[int], list[bool], list[tuple]]:
        """Per row, in ``cols.runs`` order: the next row at or after it that
        is *not* cleared — cleared meaning :meth:`_step` provably returns
        nothing and only pushes the course window, given that the entity's
        earlier rows did the same; whether the row follows its predecessor
        without a gap; and its course-window sample.

        Every entity's carried course window is laid in front of its rows,
        so a row's window is the samples behind it back to the horizon of
        the previous push. A new entity gets its first row refined; one
        carried stopped, slow or without a window is not screened at all.
        """
        cfg = self.config
        order, starts, counts = cols.runs
        n = len(order)
        carried: list[tuple] = []
        widths, screened, alt_before_run, air_before_run = [], [], [], []
        for state in run_states:
            last, window = state.last_fix, state.window
            in_step = last is not None and state.stop_since is None and state.slow_since is None \
                and bool(window) and window[-1][0] == last.t
            if in_step:
                carried.extend(window)
            widths.append(len(window) if in_step else 0)
            screened.append(in_step or last is None)
            alt_before_run.append(last.alt if in_step else 0.0)
            air_before_run.append(bool(state.was_airborne))
        t, lon, lat, alt, speed, heading, vrate = run_cols = cols.columns[:, order]
        samples = list(zip(*run_cols[[T, LON, LAT, SPEED]].tolist()))
        if set(map(type, chain(chain.from_iterable(carried), alt_before_run))) - {float}:
            return list(range(n)), [True] * n, samples   # state only the per-fix arithmetic reads exactly
        has_speed, has_heading, has_vrate = cols.valid[[SPEED, HEADING, VRATE]][:, order]
        widths = np.array(widths)
        carried_upto = np.cumsum(widths)
        run_start = starts + carried_upto - widths
        row_at = np.arange(n) + np.repeat(carried_upto, counts)
        run_at = np.repeat(run_start, counts)
        block = np.empty((4, n + len(carried)))
        block[:, row_at] = run_cols[[T, LON, LAT, SPEED]]
        carried_at = np.arange(len(carried)) + np.repeat(starts, widths)
        block[:, carried_at] = np.array(carried).reshape(-1, 4).T
        bt, blon, blat, bspeed = block
        last = np.maximum(row_at - 1, 0)
        has_prev = row_at - 1 >= run_at
        lo, hi = 1.0 - SCREEN_SLACK, 1.0 + SCREEN_SLACK
        with np.errstate(all="ignore"):
            dt = t - bt[last]
            implied = haversine_m_batch(blon[last], blat[last], lon, lat) / dt
            gapless = dt <= cfg.gap_threshold_s
            continuous = ~has_prev | gapless
            moving = (
                has_prev & (dt > 0.0) & gapless & (implied * hi < cfg.max_speed_ms)
                & (np.where(has_speed, speed, implied * lo) >= cfg.slow_speed_ms)
            )
            # The course window: walk back a sample at a time, all rows at once.
            horizon = bt[last] - cfg.course_window_s
            width, total = np.zeros(n, dtype=np.intp), np.zeros(n)
            oldest, summable = last.copy(), np.ones(n, dtype=bool)
            for back in range(1, len(block[0]) + 1):
                at = np.maximum(row_at - back, 0)
                inside = (row_at - back >= run_at) & (bt[at] >= horizon)
                if not inside.any():
                    break
                width += inside
                total += np.where(inside, bspeed[at], 0.0)
                # Non-negative samples: any summation order is within SCREEN_SLACK.
                summable &= ~inside | (bspeed[at] >= 0.0)
                oldest = np.where(inside, at, oldest)
            mean = total / width
            ratio = np.abs(np.where(has_speed, speed, implied) - mean) / mean
            steady = (width == 0) | summable & (
                (mean * hi < _MIN_MEAN_SPEED_MS)
                | (mean * lo > _MIN_MEAN_SPEED_MS) & (ratio + SCREEN_SLACK * (1.0 + ratio) < cfg.speed_change_ratio)
            )
            no_course = (
                (width < 2)
                | (np.abs(blon[last] - blon[oldest]) < _NO_COURSE_DEG) & (np.abs(blat[last] - blat[oldest]) < _NO_COURSE_DEG)
            )
            course = initial_bearing_deg_batch(blon[oldest], blat[oldest], blon[last], blat[last])
            straight = ~has_heading | no_course | (
                heading_difference_batch(heading, course) + 360.0 * SCREEN_SLACK < cfg.turn_threshold_deg
            )
            airborne = alt > cfg.ground_altitude_m
            was_airborne, alt_before = np.r_[False, airborne[:-1]], np.r_[0.0, alt[:-1]]
            was_airborne[starts], alt_before[starts] = air_before_run, alt_before_run
            climb = np.where(has_vrate, vrate, (alt - alt_before) / dt)
            level = (airborne == was_airborne) & (np.abs(climb) <= cfg.altitude_rate_ms)
        cleared = moving & steady & straight & level & np.repeat(screened, counts)
        next_refined = np.minimum.accumulate(np.where(cleared, n, np.arange(n))[::-1])[::-1]
        return next_refined.tolist(), continuous.tolist(), samples

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

        # A NaN clock compares False with every other and +inf is later than
        # all of them: as ``last_fix`` or in the course window, either would
        # freeze the entity or stop window eviction for good.
        if not math.isfinite(fix.t):
            self.noise_dropped += 1
            return out

        # Noise filter: reject fixes implying impossible motion; they would
        # otherwise masquerade as turns/speed changes.
        if prev is not None and fix.t > prev.t:
            implied = prev.distance_to(fix) / (fix.t - prev.t)
            if implied > cfg.max_speed_ms:
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
        if abs(lon1 - lon0) < _NO_COURSE_DEG and abs(lat1 - lat0) < _NO_COURSE_DEG:
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
        if mean_speed < _MIN_MEAN_SPEED_MS:
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
