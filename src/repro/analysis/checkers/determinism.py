"""Determinism linting for event-time code.

The shard-equivalence and per-fix oracles both rest on the broker, the
shard merge and the event recognizer being *event-time pure*:
reprocessing the same records yields byte-identical outputs.
Wall-clock reads (``time.time()``, ``datetime.now()``) and global
RNG state (module-level ``random.*`` / ``np.random.*``) break that
silently — the tests still pass on one run and flake on the next.

Scope: the packages where event time is mandatory (``repro.streams``,
``repro.cep``). ``time.perf_counter()`` is allowed — it measures wall
*duration* for probes and never enters event-time or record values.
Seeded generators (``random.Random(seed)``, ``np.random.default_rng(seed)``)
are the sanctioned way to be stochastic and are not flagged.
"""

from __future__ import annotations

import ast

from ..config import AnalysisConfig
from ..model import Finding, Project
from ..registry import Checker, register
from ._util import dotted_name

#: Subpackage prefixes where event-time purity is mandatory.
EVENT_TIME_MODULES = ("repro.streams", "repro.cep")

#: Wall-clock reads that leak physical time into operator logic.
WALL_CLOCK_CALLS = {
    "time.time": "use record event time (record.t) instead of wall-clock time",
    "time.time_ns": "use record event time (record.t) instead of wall-clock time",
    "datetime.now": "use record event time instead of wall-clock datetimes",
    "datetime.utcnow": "use record event time instead of wall-clock datetimes",
    "datetime.datetime.now": "use record event time instead of wall-clock datetimes",
    "datetime.datetime.utcnow": "use record event time instead of wall-clock datetimes",
    "date.today": "use record event time instead of the wall-clock date",
    "datetime.date.today": "use record event time instead of the wall-clock date",
}

#: Module-level RNG functions: global, unseedable-per-component state.
GLOBAL_RANDOM_FUNCS = {
    "betavariate", "choice", "choices", "expovariate", "gauss", "getrandbits",
    "normalvariate", "paretovariate", "randbytes", "randint", "random",
    "randrange", "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
}

#: np.random module-level equivalents (legacy global RandomState).
GLOBAL_NP_RANDOM_FUNCS = {
    "beta", "binomial", "choice", "exponential", "normal", "permutation",
    "poisson", "rand", "randint", "randn", "random", "random_sample",
    "seed", "shuffle", "standard_normal", "uniform",
}


@register
class DeterminismChecker(Checker):
    name = "determinism"
    description = (
        "flag wall-clock reads and global-RNG use inside event-time "
        "operator code (repro.streams, repro.cep)"
    )

    def run(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        findings: list[Finding] = []
        for source in project.realm("src"):
            if source.tree is None:
                continue
            if not any(
                source.module == pkg or source.module.startswith(pkg + ".")
                for pkg in EVENT_TIME_MODULES
            ):
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if not name:
                    continue
                finding = self._check_call(source, node, name)
                if finding is not None:
                    findings.append(finding)
        return findings

    def _check_call(self, source, node: ast.Call, name: str) -> Finding | None:
        if name in WALL_CLOCK_CALLS:
            return self.finding(
                "error",
                source.relpath,
                node.lineno,
                node.col_offset,
                f"wall-clock call {name}() in event-time code — "
                f"{WALL_CLOCK_CALLS[name]}",
                symbol=source.module,
            )
        parts = name.split(".")
        if len(parts) == 2 and parts[0] == "random" and parts[1] in GLOBAL_RANDOM_FUNCS:
            return self.finding(
                "error",
                source.relpath,
                node.lineno,
                node.col_offset,
                f"global RNG call {name}() — use a seeded random.Random "
                f"instance owned by the component",
                symbol=source.module,
            )
        if (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] in GLOBAL_NP_RANDOM_FUNCS
        ):
            return self.finding(
                "error",
                source.relpath,
                node.lineno,
                node.col_offset,
                f"global NumPy RNG call {name}() — use a seeded "
                f"np.random.default_rng(seed) generator",
                symbol=source.module,
            )
        # Unseeded generator construction: random.Random() / default_rng().
        if name in ("random.Random", "Random") and not node.args and not node.keywords:
            if name == "Random" and not self._imports_random_random(source):
                return None
            return self.finding(
                "error",
                source.relpath,
                node.lineno,
                node.col_offset,
                "unseeded random.Random() — pass an explicit seed so replays "
                "are reproducible",
                symbol=source.module,
            )
        if name.endswith("default_rng") and not node.args and not node.keywords:
            return self.finding(
                "error",
                source.relpath,
                node.lineno,
                node.col_offset,
                "unseeded np.random.default_rng() — pass an explicit seed so "
                "replays are reproducible",
                symbol=source.module,
            )
        return None

    @staticmethod
    def _imports_random_random(source) -> bool:
        """Is bare ``Random`` the stdlib one (``from random import Random``)?"""
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                if any(alias.name == "Random" for alias in node.names):
                    return True
        return False
