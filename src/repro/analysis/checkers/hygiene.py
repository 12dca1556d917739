"""API hygiene: defect patterns that corrupt state or hide failures.

Two families, both grounded in bugs this codebase is structurally
exposed to:

* **mutable default arguments** — a shared list/dict/set default is
  cross-call global state, the antithesis of replayable stages;
* **bare / broad / swallowed excepts** — ``except:`` catches
  ``KeyboardInterrupt`` and hides broker/stage failures; ``except
  Exception`` is almost as indiscriminate and only belongs at a
  process/IPC boundary where *any* failure must be serialised rather
  than propagated; an ``except X: pass`` silently drops data. When
  intentional, say why with a ``# reprolint: disable=hygiene — reason``
  pragma.
"""

from __future__ import annotations

import ast

from ..config import AnalysisConfig
from ..model import Finding, Project
from ..registry import Checker, register

_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


@register
class HygieneChecker(Checker):
    name = "hygiene"
    description = (
        "mutable default arguments and bare/broad/swallowed excepts"
    )

    def run(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        findings: list[Finding] = []
        for source in project.realm("src", "benchmarks", "examples"):
            if source.tree is None:
                continue
            for node in ast.walk(source.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    findings.extend(self._mutable_defaults(source, node))
                elif isinstance(node, ast.ExceptHandler):
                    findings.extend(self._except_handler(source, node))
        return findings

    # -- mutable defaults --------------------------------------------------------

    def _mutable_defaults(self, source, fn: ast.FunctionDef):
        args = fn.args
        positional = args.posonlyargs + args.args
        defaults: list[tuple[ast.arg, ast.expr]] = list(
            zip(positional[len(positional) - len(args.defaults):], args.defaults)
        )
        defaults.extend(
            (a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        )
        for arg, default in defaults:
            if self._is_mutable(default):
                yield self.finding(
                    "error",
                    source.relpath,
                    default.lineno,
                    default.col_offset,
                    f"mutable default for parameter {arg.arg!r} in "
                    f"{fn.name}() — the default is shared across calls; "
                    f"use None and create it in the body",
                    symbol=f"{source.module}.{fn.name}",
                )

    @staticmethod
    def _is_mutable(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            fn = expr.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", "")
            return name in _MUTABLE_CALLS
        return False

    # -- except handlers ---------------------------------------------------------

    def _except_handler(self, source, handler: ast.ExceptHandler):
        if handler.type is None:
            yield self.finding(
                "error",
                source.relpath,
                handler.lineno,
                handler.col_offset,
                "bare `except:` catches SystemExit/KeyboardInterrupt — name "
                "the exceptions this site can actually handle",
                symbol=source.module,
            )
            return
        broad = (
            isinstance(handler.type, ast.Name)
            and handler.type.id in ("Exception", "BaseException")
        ) or (
            isinstance(handler.type, ast.Attribute)
            and handler.type.attr in ("Exception", "BaseException")
        )
        if broad:
            yield self.finding(
                "error",
                source.relpath,
                handler.lineno,
                handler.col_offset,
                f"broad `except {ast.unparse(handler.type)}` — narrow it to "
                f"the concrete exception set, or justify the catch-all (e.g. "
                f"a process/IPC boundary that must serialise any failure) "
                f"with a `# reprolint: disable=hygiene` pragma",
                symbol=source.module,
            )
        body = handler.body
        only_pass = all(
            isinstance(stmt, ast.Pass)
            or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and stmt.value.value is Ellipsis)
            for stmt in body
        )
        if only_pass:
            # Anchor at the swallowing statement itself, where an inline
            # justification pragma naturally sits.
            yield self.finding(
                "error",
                source.relpath,
                body[0].lineno,
                body[0].col_offset,
                "swallowed exception (`except ...: pass`) hides failures — "
                "handle it, log it, or justify it with a "
                "`# reprolint: disable=hygiene` pragma",
                symbol=source.module,
            )
