"""Dual-path parity: every fast path keeps — and tests — its scalar twin.

PR 3 introduced columnar fast paths (``vectorized=`` star scans,
``*_batch`` numpy kernels) whose correctness story is an
*equivalence oracle*: the scalar implementation is kept alive and a
test drives both paths over the same input. That story quietly dies if
someone deletes the scalar branch or the equivalence test; nothing else
fails until results diverge in production. This checker makes the
convention load-bearing:

* a function with a ``vectorized=`` parameter must actually branch on
  it (the scalar twin still exists) and must be named by at least one
  test that exercises ``vectorized=False``;
* the same discipline for the sharded substrate: a function with a
  ``worker_pool=`` parameter (the one selector between in-process
  replicas and worker processes) must use it and be named by a test
  exercising ``worker_pool=False`` — the in-process replicas are the
  determinism oracle the pool-backed path is checked against — and
  anything taking ``n_shards`` must be named by a test that also
  constructs the ``n_shards=1`` single-shard oracle, the equivalence
  baseline sharded runs are checked against;
* in subpackages that opt in via ``[dual_path]
  batch_suffix_packages`` in ``tools/layering.toml`` (the geo and
  link-discovery kernel layers), every public ``*_batch``
  function/method must have a scalar twin somewhere in src — the name
  with ``_batch`` stripped, optionally underscore-private or with a
  plural token singularized (``cell_ids_batch`` -> ``cell_id``) — and
  must be named by at least one test (the equivalence suite).
"""

from __future__ import annotations

import ast

from ..config import AnalysisConfig
from ..model import Finding, Project, SourceFile
from ..registry import Checker, register
from ._util import walk_classes

#: Parameters that select between twin implementations -> (the call-site
#: text that selects the oracle side, the oracle side, the fast side,
#: what goes unverified without a test of the oracle side).
_TWIN_FLAGS = {
    "vectorized": (
        "vectorized=False",
        "the scalar twin (the equivalence oracle)",
        "a vectorized fast path",
        "the scalar/vectorized equivalence",
    ),
    "worker_pool": (
        "worker_pool=False",
        "the in-process replica twin (the determinism oracle)",
        "a worker-pool fast path",
        "the equivalence of the pool-backed path and the in-process oracle",
    ),
}


@register
class DualPathChecker(Checker):
    name = "dual-path"
    description = (
        "vectorized/batched fast paths must keep their scalar twin and "
        "both must be exercised by a test"
    )

    def run(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        findings: list[Finding] = []
        tests = project.realm("tests")
        all_defs = self._all_function_names(project)
        for source in project.realm("src"):
            if source.tree is None:
                continue
            findings.extend(self._twin_parameters(source, tests))
            findings.extend(self._batch_suffix_functions(source, tests, all_defs, config))
        return findings

    @staticmethod
    def _all_function_names(project: Project) -> set[str]:
        """Every function/method name defined anywhere in src."""
        names: set[str] = set()
        for src in project.realm("src"):
            if src.tree is None:
                continue
            for node in ast.walk(src.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(node.name)
        return names

    # -- twin-selecting parameters (vectorized=, worker_pool=, n_shards) -----------

    def _twin_parameters(self, source: SourceFile, tests: list[SourceFile]):
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            arg_names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            owner = self._enclosing_class(source, node)
            symbol = f"{owner}.{node.name}" if owner else node.name
            anchor = owner or node.name
            for flag, (oracle_call, oracle, fast, unverified) in _TWIN_FLAGS.items():
                if flag not in arg_names:
                    continue
                if not self._branches_on(node, flag):
                    message = (
                        f"{symbol}() takes {flag}= but never branches on it — "
                        f"{oracle} is gone"
                    )
                elif not self._tested_with(tests, anchor, oracle_call):
                    message = (
                        f"{symbol}() has {fast} but no test references {anchor} "
                        f"with {oracle_call} — {unverified} is unverified"
                    )
                else:
                    continue
                yield self.finding(
                    "error", source.relpath, node.lineno, node.col_offset, message,
                    symbol=f"{source.module}.{symbol}",
                )
            if "n_shards" in arg_names and not self._tested_with(tests, anchor, "n_shards=1"):
                yield self.finding(
                    "error",
                    source.relpath,
                    node.lineno,
                    node.col_offset,
                    f"{symbol}() takes n_shards but no test references "
                    f"{anchor} alongside the n_shards=1 single-shard "
                    f"oracle — the shard-merge equivalence is unverified",
                    symbol=f"{source.module}.{symbol}",
                )

    # -- _batch suffix kernels (geo / link-discovery layers) -----------------------

    @staticmethod
    def _twin_candidates(batch_name: str) -> set[str]:
        """Acceptable scalar-twin names for a ``*_batch`` symbol."""
        base = batch_name[: -len("_batch")]
        candidates = {base, "_" + base}
        singular = "_".join(
            tok[:-1] if len(tok) > 1 and tok.endswith("s") and not tok.endswith("ss") else tok
            for tok in base.split("_")
        )
        candidates.update({singular, "_" + singular})
        return candidates

    def _batch_suffix_functions(
        self,
        source: SourceFile,
        tests: list[SourceFile],
        all_defs: set[str],
        config: AnalysisConfig,
    ):
        dual = config.dual_path
        if dual is None or not dual.batch_suffix_packages:
            return
        parts = source.module.split(".")
        if len(parts) < 2 or parts[1] not in dual.batch_suffix_packages:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_") or not node.name.endswith("_batch"):
                continue
            owner = self._enclosing_class(source, node)
            symbol = f"{owner}.{node.name}" if owner else node.name
            if not (self._twin_candidates(node.name) & all_defs):
                yield self.finding(
                    "error",
                    source.relpath,
                    node.lineno,
                    node.col_offset,
                    f"{symbol}() is a batch kernel but no scalar twin "
                    f"({node.name[:-len('_batch')]}) exists anywhere in src — "
                    f"the equivalence oracle is gone",
                    symbol=f"{source.module}.{symbol}",
                )
                continue
            if not any(node.name in t.text for t in tests):
                yield self.finding(
                    "error",
                    source.relpath,
                    node.lineno,
                    node.col_offset,
                    f"{symbol}() is a batch kernel but no test references "
                    f"{node.name} — the batch/scalar equivalence is unverified",
                    symbol=f"{source.module}.{symbol}",
                )

    @staticmethod
    def _tested_with(tests: list[SourceFile], anchor: str, call_text: str) -> bool:
        """Does some test file name ``anchor`` and contain ``call_text``?"""
        return any(anchor in t.text and call_text in t.text for t in tests)

    @staticmethod
    def _enclosing_class(source: SourceFile, fn: ast.AST) -> str:
        for cls in walk_classes(source.tree):
            if fn in ast.walk(cls):
                return cls.name
        return ""

    @staticmethod
    def _branches_on(fn: ast.AST, param: str) -> bool:
        """Does any node under ``fn`` read ``param`` (outside its signature)?"""
        return any(
            isinstance(node, ast.Name) and node.id == param and isinstance(node.ctx, ast.Load)
            for node in ast.walk(fn)
        )
