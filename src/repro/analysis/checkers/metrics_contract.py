"""Metric-contract linting: names, grammar, and dead-rule detection.

Everything observability-shaped in this repo keys on *metric names*:
the ``HealthMonitor`` default rules glob over gauges and the dashboard
parses the ``op.<name>.*`` family. None of that is checked anywhere — a
typo'd name means a rule that never fires. This checker closes the loop
statically:

* **extraction** — every ``counter("...")`` / ``gauge("...")`` /
  ``histogram("...")`` / ``time("...")`` call in shipped code (src,
  benchmarks, examples) is resolved to a name, with f-string holes
  becoming ``*`` wildcards, ``OperatorProbe`` call sites expanded to
  the full ``op.<name>.*`` family they register, and the
  ``instrument_broker`` / ``instrument_consumer`` call sites to their
  ``broker.*`` gauges;
* **grammar** — extracted names must be lowercase dotted paths of at
  least two segments whose root is a known namespace (``op``, ``kg``,
  ``cep``, ``batch``, ...);
* **dead health rules** — every glob passed to ``add_rule`` in src must
  match at least one statically-registerable *gauge*.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from fnmatch import fnmatchcase

from ..config import AnalysisConfig
from ..model import Finding, Project, SourceFile
from ..registry import Checker, register
from ._util import WILDCARD, loop_string_bindings, resolve_strings

#: Namespace roots the dotted grammar admits (see DESIGN.md §observability).
KNOWN_ROOTS = frozenset(
    {
        "op", "kg", "cep", "batch", "broker", "realtime",
        "shard", "stage", "synopses", "linkdiscovery", "prediction",
        "dashboard", "throughput", "e2e", "ipc",
    }
)

_NAME_RE = re.compile(r"[a-z0-9_*]+(\.[a-z0-9_*]+)+")

#: Registry accessor -> snapshot section.
_ACCESSOR_KIND = {
    "counter": "counters",
    "gauge": "gauges",
    "histogram": "histograms",
    "time": "histograms",
    "_time": "histograms",
}

#: The op.<name>.* family one OperatorProbe registers.
_PROBE_FAMILY = (
    ("counters", "records_in"),
    ("counters", "records_out"),
    ("counters", "batches"),
    ("histograms", "latency_s"),
)


@dataclass(frozen=True)
class Emission:
    """One statically-extracted metric registration."""

    kind: str      # "counters" | "gauges" | "histograms"
    name: str      # dotted name; "*" marks a dynamic segment
    path: str
    line: int
    col: int


def could_match(reference: str, emitted: str) -> bool:
    """Can the glob/name ``reference`` match the emitted name/pattern?

    Both sides may contain ``*``. The heuristic substitutes a concrete
    placeholder segment for the wildcards of one side and glob-matches
    against the other, in both directions — exact for every pattern
    shape this repo uses (wildcards standing for whole segments).
    """
    concrete_emitted = emitted.replace(WILDCARD, "x")
    concrete_reference = reference.replace(WILDCARD, "x")
    return fnmatchcase(concrete_emitted, reference) or fnmatchcase(
        concrete_reference, emitted
    )


@register
class MetricContractChecker(Checker):
    name = "metric-contract"
    description = (
        "validate emitted metric names against the dotted-namespace "
        "grammar and cross-check HealthMonitor rules against them"
    )

    def run(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        findings: list[Finding] = []
        emissions: list[Emission] = []
        for source in project.realm("src", "benchmarks", "examples"):
            if source.tree is None:
                continue
            emissions.extend(self._extract(source))
        findings.extend(self._check_grammar(emissions))
        findings.extend(self._check_health_rules(project, emissions))
        return findings

    # -- extraction --------------------------------------------------------------

    def _extract(self, source: SourceFile) -> list[Emission]:
        out: list[Emission] = []
        bindings = loop_string_bindings(source.tree)

        def emit(kind: str, names: list[str], node: ast.AST) -> None:
            for name in names:
                if name == WILDCARD:
                    continue  # fully dynamic: that's the wrapper, not a call site
                out.append(
                    Emission(kind, name, source.relpath, node.lineno, node.col_offset)
                )

        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else ""
            )
            if attr in _ACCESSOR_KIND and node.args:
                emit(_ACCESSOR_KIND[attr], resolve_strings(node.args[0], bindings), node)
            elif attr == "OperatorProbe" and len(node.args) >= 2:
                for op_name in resolve_strings(node.args[1], bindings):
                    for kind, field in _PROBE_FAMILY:
                        emit(kind, [f"op.{op_name}.{field}"], node)
            elif attr == "instrument_broker":
                for field in ("size", "published", "dropped"):
                    emit("gauges", [f"broker.topic.{WILDCARD}.{field}"], node)
            elif attr == "instrument_consumer":
                emit("gauges", [f"broker.lag.{WILDCARD}.{WILDCARD}"], node)
        return out

    # -- grammar -----------------------------------------------------------------

    def _check_grammar(self, emissions: list[Emission]) -> list[Finding]:
        findings = []
        for em in emissions:
            root = em.name.split(".", 1)[0]
            if _NAME_RE.fullmatch(em.name) is None:
                findings.append(
                    self.finding(
                        "error",
                        em.path,
                        em.line,
                        em.col,
                        f"metric name {em.name!r} violates the dotted-namespace "
                        f"grammar (lowercase [a-z0-9_] segments joined by dots, "
                        f"at least two segments)",
                    )
                )
            elif root != WILDCARD and root not in KNOWN_ROOTS:
                known = ", ".join(sorted(KNOWN_ROOTS))
                findings.append(
                    self.finding(
                        "error",
                        em.path,
                        em.line,
                        em.col,
                        f"metric name {em.name!r} uses unknown namespace root "
                        f"{root!r} (known roots: {known})",
                    )
                )
        return findings

    # -- dead health rules -------------------------------------------------------

    def _check_health_rules(
        self, project: Project, emissions: list[Emission]
    ) -> list[Finding]:
        gauges = [em.name for em in emissions if em.kind == "gauges"]
        findings = []
        for source in project.realm("src"):
            if source.tree is None:
                continue
            for node in ast.walk(source.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_rule"
                    and len(node.args) >= 2
                ):
                    continue
                for metric in resolve_strings(node.args[1]):
                    if metric == WILDCARD:
                        continue
                    if not any(could_match(metric, g) for g in gauges):
                        findings.append(
                            self.finding(
                                "error",
                                source.relpath,
                                node.lineno,
                                node.col_offset,
                                f"dead health rule: glob {metric!r} matches no "
                                f"statically-registered gauge — the rule can "
                                f"never fire",
                                symbol=source.module,
                            )
                        )
        return findings
