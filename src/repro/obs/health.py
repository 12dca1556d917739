"""Pipeline health: rule-based OK / DEGRADED / FAILING states with hysteresis.

A time-critical deployment (the ROADMAP's production north star, and
the edge/cloud mobility stacks in PAPERS.md) needs a yes/no answer to
"is the pipeline keeping up?" that is cheaper than reading dashboards:
consumer groups falling behind, error rates climbing. A
:class:`HealthMonitor` evaluates declarative :class:`HealthRule`s over
registry gauges and derives a state per component plus a system-wide
worst-of state.

States only change with *hysteresis*: a component escalates or
recovers after :data:`HYSTERESIS` consecutive evaluations at a worse or
a better level, so a single spiky poll cannot flap an alert. Every
transition is emitted to an optional :class:`~repro.obs.events.EventLog`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any

from .events import EventLog
from .metrics import MetricsRegistry

#: Health states, best to worst. Comparisons use this ordering.
OK = "OK"
DEGRADED = "DEGRADED"
FAILING = "FAILING"
STATES = (OK, DEGRADED, FAILING)

_RANK = {s: i for i, s in enumerate(STATES)}

#: Consecutive evaluations at a new level before a component's state follows.
HYSTERESIS = 2


def worst(states: "list[str]") -> str:
    """The worst of a list of states (OK when empty)."""
    return max(states, key=_RANK.__getitem__, default=OK)


@dataclass(frozen=True, slots=True)
class HealthRule:
    """One gauge threshold pair: above ``degraded`` / ``failing`` is bad.

    ``metric`` names a gauge in the registry, or a glob pattern
    (``broker.lag.*``) matched against every gauge at evaluation time —
    so rules can be declared before the components register their
    gauges. A gauge that does not exist (yet) reads as healthy.
    """

    component: str
    metric: str
    degraded_above: float
    failing_above: float

    def __post_init__(self) -> None:
        if self.failing_above < self.degraded_above:
            raise ValueError(
                f"rule {self.metric!r}: failing_above must be >= degraded_above"
            )

    def level(self, value: float) -> str:
        if math.isnan(value):
            return OK
        if value > self.failing_above:
            return FAILING
        if value > self.degraded_above:
            return DEGRADED
        return OK


@dataclass
class _ComponentState:
    """Hysteresis book-keeping for one component."""

    state: str = OK
    candidate: str = OK     # the level the raw signal currently argues for
    streak: int = 0         # consecutive evaluations at ``candidate``
    transitions: int = 0
    worst_seen: str = OK
    last_breach: dict[str, float] = field(default_factory=dict)  # metric -> value


class HealthMonitor:
    """Evaluates health rules over a registry; derives component states."""

    def __init__(
        self,
        registry: MetricsRegistry,
        event_log: EventLog | None = None,
    ):
        self.registry = registry
        self.event_log = event_log
        self._rules: list[HealthRule] = []
        self._components: dict[str, _ComponentState] = {}
        self.evaluations = 0

    def add_rule(
        self,
        component: str,
        metric: str,
        degraded_above: float,
        failing_above: float,
    ) -> HealthRule:
        rule = HealthRule(component, metric, degraded_above, failing_above)
        self._rules.append(rule)
        self._components.setdefault(component, _ComponentState())
        return rule

    # -- evaluation --------------------------------------------------------------

    def evaluate(self) -> dict[str, str]:
        """Run every rule once; returns the (hysteresis-filtered) states."""
        self.evaluations += 1
        gauges = self.registry.gauges()
        raw: dict[str, str] = {c: OK for c in self._components}
        breaches: dict[str, dict[str, float]] = {c: {} for c in self._components}
        for rule in self._rules:
            if "*" in rule.metric or "?" in rule.metric:
                matched = [(n, v) for n, v in gauges.items() if fnmatchcase(n, rule.metric)]
            elif rule.metric in gauges:
                matched = [(rule.metric, gauges[rule.metric])]
            else:
                matched = []
            for name, value in matched:
                level = rule.level(value)
                if _RANK[level] > _RANK[raw[rule.component]]:
                    raw[rule.component] = level
                if level != OK:
                    breaches[rule.component][name] = value
        for component, level in raw.items():
            self._advance(component, level, breaches[component])
        return self.states()

    def _advance(self, component: str, raw_level: str, breach: dict[str, float]) -> None:
        cs = self._components[component]
        if raw_level == cs.state:
            cs.candidate = raw_level
            cs.streak = 0
            return
        if raw_level != cs.candidate:
            cs.candidate = raw_level
            cs.streak = 1
        else:
            cs.streak += 1
        if cs.streak < HYSTERESIS:
            return
        previous, cs.state = cs.state, raw_level
        cs.streak = 0
        cs.transitions += 1
        cs.last_breach = dict(breach)
        if _RANK[raw_level] > _RANK[cs.worst_seen]:
            cs.worst_seen = raw_level
        if self.event_log is not None:
            severity = "info" if raw_level == OK else ("error" if raw_level == FAILING else "warn")
            self.event_log.emit(
                severity,
                "health",
                "transition",
                f"{component}: {previous} -> {raw_level}",
                component_name=component,
                previous=previous,
                state=raw_level,
                **{f"breach.{m}": v for m, v in breach.items()},
            )

    # -- views -------------------------------------------------------------------

    def states(self) -> dict[str, str]:
        """Current per-component states (post-hysteresis)."""
        return {c: cs.state for c, cs in sorted(self._components.items())}

    def state(self, component: str) -> str:
        return self._components[component].state

    def system_state(self) -> str:
        """Worst component state — the one-line answer."""
        return worst([cs.state for cs in self._components.values()])

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable view for ``system_metrics()`` and /healthz."""
        return {
            "system": self.system_state(),
            "evaluations": self.evaluations,
            "components": {
                name: {
                    "state": cs.state,
                    "transitions": cs.transitions,
                    "worst_seen": cs.worst_seen,
                    **({"last_breach": cs.last_breach} if cs.last_breach else {}),
                }
                for name, cs in sorted(self._components.items())
            },
        }


def default_realtime_rules(monitor: HealthMonitor) -> HealthMonitor:
    """The rule set the integrated real-time layer ships with.

    Covers the two degradation modes the Figure-2 layer registers gauges
    for: consumer groups falling behind the broker (``broker.lag.*``
    gauges) and the online cleaner rejecting an abnormal share of input
    (``realtime.error_rate``). The lag pattern binds to gauges lazily,
    so it matches consumers instrumented after the monitor was built.
    A consumer is DEGRADED 5 000 records behind and FAILING at 50 000;
    the cleaner at a 20 % and a 50 % rejection rate.
    """
    monitor.add_rule("broker", "broker.lag.*", 5_000.0, 50_000.0)
    monitor.add_rule("clean", "realtime.error_rate", 0.2, 0.5)
    return monitor
