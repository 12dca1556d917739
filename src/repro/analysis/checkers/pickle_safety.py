"""Pickle safety at the fork/IPC boundary.

Everything that crosses a process boundary in the sharded substrate is
pickled: worker specs at spawn (``Process(target=..., args=...)``),
request/reply payloads through ``Connection.send``, and the
observability harvests the workers ship home. A type that cannot pickle
— a lambda tucked into a spec field, an open file handle, a lock, a
live generator — fails at *runtime*, on the serving path, usually only
on the spawn context that actually re-pickles (forkserver/spawn), which
makes it exactly the class of bug worth catching statically.

The checker classifies the boundary in two ways:

* **declared roots** — ``[pickle_safety].boundary_roots`` in
  ``tools/layering.toml`` lists the dotted classes whose instances
  cross the boundary. The checker walks every class statically
  reachable from them through dataclass field annotations and flags
  fields that cannot pickle: lambda defaults, and annotations naming
  known-unpicklable types (locks, threads, connections, sockets, open
  file objects, generators);
* **observed call sites** — anything passed to
  ``Process(target=..., args=...)`` or sent through a connection-like
  ``.send(...)`` anywhere in ``src`` is part of the boundary whether
  declared or not: lambdas, generator expressions and ``open(...)``
  results in those positions are findings, a ``target=`` that is a
  lambda or a function nested inside another function (unpicklable
  closure) is a finding, and class constructors invoked in ``args``
  seed the reachability walk alongside the declared roots.

Deliberately *not* flagged: ``field(default_factory=lambda: ...)``
(the factory runs at construction; its result is what pickles) and
callable-typed fields without a default (picklability depends on what
call sites bind — the hypothesis round-trip test in
``tests/test_streams_workers.py`` is the runtime witness for those).
"""

from __future__ import annotations

import ast

from ..config import AnalysisConfig
from ..model import Finding, Project, SourceFile
from ..registry import Checker, register
from ._util import connection_receiver

#: Simple type names that never pickle (or hold OS state that must not
#: cross a process boundary even where a custom reducer exists).
_UNPICKLABLE_TYPES = {
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "Thread",
    "Connection",
    "PipeConnection",
    "socket",
    "IO",
    "TextIO",
    "BinaryIO",
    "TextIOWrapper",
    "BufferedReader",
    "BufferedWriter",
    "Generator",
}


def _annotation_names(expr: ast.expr) -> set[str]:
    """Every simple type name mentioned anywhere in an annotation."""
    names: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


class _ClassIndex:
    """All classes of the ``src`` realm, by dotted path and simple name."""

    def __init__(self, project: Project) -> None:
        self.by_dotted: dict[str, tuple[SourceFile, ast.ClassDef]] = {}
        self.by_simple: dict[str, list[tuple[SourceFile, ast.ClassDef]]] = {}
        for source in project.realm("src"):
            if source.tree is None:
                continue
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    self.by_dotted[f"{source.module}.{node.name}"] = (source, node)
                    self.by_simple.setdefault(node.name, []).append((source, node))


@register
class PickleSafetyChecker(Checker):
    name = "pickle-safety"
    description = (
        "types crossing the fork/IPC boundary (declared boundary_roots plus "
        "Process/Connection.send arguments) must be statically picklable"
    )

    def run(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        spec = config.pickle_safety
        if spec is None or not spec.boundary_roots:
            return []
        index = _ClassIndex(project)
        findings: list[Finding] = []
        seeds: list[tuple[SourceFile, ast.ClassDef]] = []

        for root in spec.boundary_roots:
            entry = index.by_dotted.get(root)
            if entry is None:
                findings.append(
                    self.finding(
                        "error",
                        "tools/layering.toml",
                        1,
                        0,
                        f"pickle_safety.boundary_roots names {root!r} but no "
                        f"such class exists in src — stale root declaration",
                    )
                )
            else:
                seeds.append(entry)

        for source in project.realm("src"):
            if source.tree is not None:
                findings.extend(self._check_call_sites(source, index, seeds))

        findings.extend(self._check_reachable(index, seeds))
        return findings

    # -- call-site boundary --------------------------------------------------------

    def _check_call_sites(
        self,
        source: SourceFile,
        index: _ClassIndex,
        seeds: list[tuple[SourceFile, ast.ClassDef]],
    ):
        nested_fns = self._nested_function_names(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            fn_name = (
                node.func.id
                if isinstance(node.func, ast.Name)
                else node.func.attr if isinstance(node.func, ast.Attribute) else ""
            )
            if fn_name == "Process":
                yield from self._check_process_call(source, node, index, seeds, nested_fns)
            elif fn_name == "send" and isinstance(node.func, ast.Attribute):
                if connection_receiver(node.func.value) and node.args:
                    yield from self._check_boundary_expr(
                        source, node.args[0], index, seeds, "Connection.send payload"
                    )

    def _check_process_call(self, source, call, index, seeds, nested_fns):
        for kw in call.keywords:
            if kw.arg == "target":
                if isinstance(kw.value, ast.Lambda):
                    yield self.finding(
                        "error",
                        source.relpath,
                        kw.value.lineno,
                        kw.value.col_offset,
                        "Process target is a lambda — lambdas cannot pickle, "
                        "so this fails on any spawn/forkserver context; use a "
                        "module-level function",
                        symbol=source.module,
                    )
                elif isinstance(kw.value, ast.Name) and kw.value.id in nested_fns:
                    yield self.finding(
                        "error",
                        source.relpath,
                        kw.value.lineno,
                        kw.value.col_offset,
                        f"Process target {kw.value.id!r} is a nested function "
                        f"— closures cannot pickle, so this fails on any "
                        f"spawn/forkserver context; hoist it to module level",
                        symbol=source.module,
                    )
            elif kw.arg == "args":
                yield from self._check_boundary_expr(
                    source, kw.value, index, seeds, "Process args"
                )

    def _check_boundary_expr(self, source, expr, index, seeds, where):
        """Flag unpicklable literals inside a boundary expression and
        seed the reachability walk with constructed classes."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Lambda):
                yield self.finding(
                    "error",
                    source.relpath,
                    node.lineno,
                    node.col_offset,
                    f"lambda inside a {where} — lambdas cannot pickle across "
                    f"the process boundary",
                    symbol=source.module,
                )
            elif isinstance(node, ast.GeneratorExp):
                yield self.finding(
                    "error",
                    source.relpath,
                    node.lineno,
                    node.col_offset,
                    f"generator expression inside a {where} — generators "
                    f"cannot pickle; materialise it (tuple/list) first",
                    symbol=source.module,
                )
            elif isinstance(node, ast.Call):
                name = (
                    node.func.id
                    if isinstance(node.func, ast.Name)
                    else node.func.attr if isinstance(node.func, ast.Attribute) else ""
                )
                if name == "open":
                    yield self.finding(
                        "error",
                        source.relpath,
                        node.lineno,
                        node.col_offset,
                        f"open file handle inside a {where} — file objects "
                        f"cannot pickle; pass the path and open it on the "
                        f"other side",
                        symbol=source.module,
                    )
                elif name in index.by_simple:
                    for entry in index.by_simple[name]:
                        if entry not in seeds:
                            seeds.append(entry)

    # -- reachability walk ---------------------------------------------------------

    def _check_reachable(self, index: _ClassIndex, seeds):
        """BFS the class graph from the seeds via field annotations."""
        queue = list(seeds)
        visited: set[str] = set()
        while queue:
            source, cls = queue.pop(0)
            dotted = f"{source.module}.{cls.name}"
            if dotted in visited:
                continue
            visited.add(dotted)
            for stmt in cls.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                field_name = (
                    stmt.target.id if isinstance(stmt.target, ast.Name) else "?"
                )
                names = _annotation_names(stmt.annotation)
                bad = sorted(names & _UNPICKLABLE_TYPES)
                if bad:
                    yield self.finding(
                        "error",
                        source.relpath,
                        stmt.lineno,
                        stmt.col_offset,
                        f"field {cls.name}.{field_name} is typed "
                        f"{'/'.join(bad)} — these cannot cross the pickle "
                        f"boundary this class is declared (or observed) on",
                        symbol=f"{dotted}.{field_name}",
                    )
                if isinstance(stmt.value, ast.Lambda):
                    yield self.finding(
                        "error",
                        source.relpath,
                        stmt.value.lineno,
                        stmt.value.col_offset,
                        f"field {cls.name}.{field_name} defaults to a lambda "
                        f"— instances keeping the default cannot pickle; use "
                        f"a module-level function",
                        symbol=f"{dotted}.{field_name}",
                    )
                for type_name in sorted(names):
                    for entry in index.by_simple.get(type_name, ()):  # follow edges
                        queue.append(entry)

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def _nested_function_names(tree: ast.AST) -> set[str]:
        """Names of functions defined inside another function."""
        nested: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    if (
                        child is not node
                        and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    ):
                        nested.add(child.name)
        return nested
