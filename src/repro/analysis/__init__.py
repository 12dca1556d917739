"""Project-aware static analysis for the reproduction (`reprolint`).

The datAcron reproduction encodes several load-bearing invariants that
exist only by convention: the layering DAG of Figure 2 (streams must
stay importable without obs), event-time purity of operator code, and
the ``op.*`` / ``kg.*`` / ``batch.*`` metric grammar that the health
monitor's glob rules bind to. A typo'd metric name or a stray
``time.time()`` inside an operator breaks those contracts silently at
runtime — exactly the defect class a compiler would have caught. This
package is that compiler pass: an AST-based framework with a pluggable
checker registry, inline pragma and committed-baseline suppression, and
text/JSON reporters, driven by ``tools/reprolint.py`` with a CI-friendly
exit-code contract.

Layout:

* :mod:`~repro.analysis.model` — findings, source files, the project model
* :mod:`~repro.analysis.config` — ``tools/layering.toml`` loading
* :mod:`~repro.analysis.registry` — the pluggable checker registry
* :mod:`~repro.analysis.baseline` — grandfathered-finding fingerprints
* :mod:`~repro.analysis.reporting` — text and JSON reporters
* :mod:`~repro.analysis.runner` — orchestration and the exit-code contract
* :mod:`~repro.analysis.checkers` — the four built-in checkers: layering,
  determinism, metric-contract and hygiene

The worker process boundary (``repro.streams.workers``) has no checker:
what crosses it and how a worker is reaped are tested by running it.
"""

from .baseline import Baseline, fingerprint
from .config import AnalysisConfig, LayeringConfig
from .model import Finding, Project, SourceFile
from .registry import Checker, all_checkers, get_checker, register
from .reporting import render_json, render_text
from .runner import AnalysisResult, run_analysis

# Importing the subpackage registers every built-in checker.
from . import checkers  # noqa: F401  (import for registration side effect)

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "Baseline",
    "Checker",
    "Finding",
    "LayeringConfig",
    "Project",
    "SourceFile",
    "all_checkers",
    "fingerprint",
    "get_checker",
    "register",
    "render_json",
    "render_text",
    "run_analysis",
]
