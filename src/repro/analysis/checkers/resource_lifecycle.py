"""Resource lifecycle: every OS handle acquired must provably be released.

The sharded substrate acquires real OS resources — worker processes,
duplex pipes, files — whose leak mode is silent: a `Process` that is
never joined becomes a zombie, an unclosed `Connection` holds an fd
until GC feels like it, and an unbounded `recv()` wedges the parent
forever on a hung-but-alive worker. None of these fail a test; all of
them take down a long-running serving deployment. This checker makes
release a static obligation inside the subpackages declared under
``[resource_lifecycle].packages`` in ``tools/layering.toml``.

For every acquisition (``Process(...)``, ``Pipe()``, ``Pool(...)``,
``open(...)``, ``socket(...)``) the checker accepts exactly these
dispositions:

* the acquisition is the context expression of a ``with`` block;
* a release method (``close``/``terminate``/``join``/…, per resource
  kind) is called on the bound name inside the same function — the
  checker is flow-insensitive here, which is deliberately permissive:
  the point is that *somebody wrote the release*, reviewers keep
  judging placement;
* the bound name is returned (ownership moves to the caller);
* the bound name is stored on ``self`` — ownership moves to the
  instance, and then the owning class must have a ``close()`` (or
  ``__exit__``/``__del__``) whose *transitive* same-class call graph
  releases that field. This is how ``WorkerHost`` passes: ``start()``
  stores the pipe and process, ``close() -> _terminate()`` releases
  both.

Dedicated rules on top:

* a ``Process(daemon=True)`` must be ``join()``-ed by its owner —
  daemonized workers die with the parent, but an unjoined one is a
  zombie for the parent's whole lifetime;
* a connection ``.recv()`` must sit behind a ``.poll(timeout)`` guard
  on the same receiver in the same function — an unguarded recv is an
  unbounded wait on a peer that may be hung rather than dead (EOF is
  only raised for *dead* peers). Worker-side idle loops that block by
  design carry an explicit pragma instead.
"""

from __future__ import annotations

import ast

from ..config import AnalysisConfig
from ..model import Finding, Project, SourceFile
from ..registry import Checker, register
from ._util import connection_receiver

#: Acquisition constructors -> the methods that count as release.
_RESOURCE_KINDS: dict[str, frozenset[str]] = {
    "Process": frozenset({"terminate", "kill", "join", "close"}),
    "Pipe": frozenset({"close"}),
    "Pool": frozenset({"terminate", "close", "join"}),
    "open": frozenset({"close"}),
    "socket": frozenset({"close"}),
    "create_connection": frozenset({"close"}),
}

_OWNER_ENTRYPOINTS = ("close", "__exit__", "__del__")


def _call_simple_name(call: ast.Call) -> str:
    fn = call.func
    if isinstance(fn, ast.Name):
        return fn.id
    if isinstance(fn, ast.Attribute):
        return fn.attr
    return ""


def _functions_with_owner(tree: ast.AST):
    """Every function def with its directly enclosing class (or None)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield stmt, node
    class_methods = {
        id(stmt)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and id(node) not in class_methods
        ):
            yield node, None


def _released_fields(cls: ast.ClassDef) -> dict[str, set[str]]:
    """``self.<field>`` -> release-ish methods called on it, collected over
    the transitive same-class call graph rooted at close/__exit__/__del__."""
    methods = {
        stmt.name: stmt
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    queue = [name for name in _OWNER_ENTRYPOINTS if name in methods]
    seen: set[str] = set()
    released: dict[str, set[str]] = {}
    while queue:
        name = queue.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(methods[name]):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if not isinstance(fn, ast.Attribute):
                continue
            if isinstance(fn.value, ast.Name) and fn.value.id == "self":
                if fn.attr in methods:  # self._terminate() and friends
                    queue.append(fn.attr)
            elif (
                isinstance(fn.value, ast.Attribute)
                and isinstance(fn.value.value, ast.Name)
                and fn.value.value.id == "self"
            ):
                released.setdefault(fn.value.attr, set()).add(fn.attr)
    return released


@register
class ResourceLifecycleChecker(Checker):
    name = "resource-lifecycle"
    description = (
        "Process/Pipe/file/socket acquisitions in the declared packages must "
        "be released on all paths; daemon processes joined, recv behind poll"
    )

    def run(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        spec = config.resource_lifecycle
        if spec is None or not spec.packages:
            return []
        findings: list[Finding] = []
        for source in project.realm("src"):
            if source.tree is None:
                continue
            parts = source.module.split(".")
            if len(parts) < 2 or parts[1] not in spec.packages:
                continue
            findings.extend(self._check_file(source))
        return findings

    def _check_file(self, source: SourceFile):
        for fn, owner in _functions_with_owner(source.tree):
            yield from self._check_function(source, fn, owner)
            yield from self._check_recv_guards(source, fn)

    # -- acquisitions --------------------------------------------------------------

    def _check_function(self, source, fn, owner: ast.ClassDef | None):
        with_exprs = {
            id(item.context_expr)
            for node in ast.walk(fn)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
        }
        owner_released = _released_fields(owner) if owner is not None else {}
        owner_has_entry = owner is not None and any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name in _OWNER_ENTRYPOINTS
            for stmt in owner.body
        )
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            kind = _call_simple_name(node)
            if kind not in _RESOURCE_KINDS or id(node) in with_exprs:
                continue
            releases = _RESOURCE_KINDS[kind]
            bound = self._bound_names(fn, node)
            if bound is None:
                yield self.finding(
                    "error",
                    source.relpath,
                    node.lineno,
                    node.col_offset,
                    f"{kind} acquired but neither bound to a name nor used "
                    f"as a context manager — its release cannot be verified",
                    symbol=source.module,
                )
                continue
            names, direct_field = bound
            daemon = kind == "Process" and self._is_daemon(node)
            if direct_field is not None:
                yield from self._check_field_ownership(
                    source, owner, node, kind, direct_field, releases,
                    owner_released, owner_has_entry, daemon,
                )
            for name in names:
                yield from self._check_binding(
                    source, fn, owner, node, kind, name, releases,
                    owner_released, owner_has_entry, daemon,
                )

    def _check_field_ownership(
        self, source, owner, node, kind, field, releases,
        owner_released, owner_has_entry, daemon,
    ):
        """The resource lives on ``self.<field>`` — the owning class must
        release it from close()/__exit__()/__del__() transitively."""
        if owner is None:
            yield self.finding(
                "error",
                source.relpath,
                node.lineno,
                node.col_offset,
                f"{kind} is stored on an attribute outside any class — its "
                f"release cannot be verified",
                symbol=source.module,
            )
            return
        if not owner_has_entry:
            yield self.finding(
                "error",
                source.relpath,
                node.lineno,
                node.col_offset,
                f"{kind} is stored on self.{field} but class "
                f"{owner.name} has no close()/__exit__()/__del__() to "
                f"release it",
                symbol=f"{source.module}.{owner.name}",
            )
            return
        field_releases = owner_released.get(field, set())
        if not field_releases & releases:
            yield self.finding(
                "error",
                source.relpath,
                node.lineno,
                node.col_offset,
                f"{kind} is stored on self.{field} but nothing reachable "
                f"from {owner.name}.close()/__exit__()/__del__() calls "
                f"{'/'.join(sorted(releases))} on it",
                symbol=f"{source.module}.{owner.name}.{field}",
            )
        if daemon and "join" not in field_releases:
            yield self.finding(
                "error",
                source.relpath,
                node.lineno,
                node.col_offset,
                f"daemon Process on self.{field} is never join()ed by "
                f"{owner.name} — an unjoined daemon worker is a zombie "
                f"for the parent's whole lifetime",
                symbol=f"{source.module}.{owner.name}.{field}",
            )

    def _check_binding(
        self, source, fn, owner, node, kind, name, releases,
        owner_released, owner_has_entry, daemon,
    ):
        called = self._methods_called_on(fn, name)
        field = self._transfer_field(fn, name)
        if field is not None:
            yield from self._check_field_ownership(
                source, owner, node, kind, field, releases,
                owner_released, owner_has_entry, daemon,
            )
            return
        if called & releases:
            if daemon and "join" not in called:
                yield self.finding(
                    "error",
                    source.relpath,
                    node.lineno,
                    node.col_offset,
                    f"daemon Process {name!r} is never join()ed — an "
                    f"unjoined daemon worker is a zombie for the parent's "
                    f"whole lifetime",
                    symbol=source.module,
                )
            return
        if self._is_returned(fn, name):
            return  # ownership moves to the caller
        yield self.finding(
            "error",
            source.relpath,
            node.lineno,
            node.col_offset,
            f"{kind} bound to {name!r} is neither released "
            f"({'/'.join(sorted(releases))}), returned, stored on self, nor "
            f"context-managed — it leaks on every path",
            symbol=source.module,
        )

    # -- recv guard ----------------------------------------------------------------

    def _check_recv_guards(self, source, fn):
        polled: set[str] = set()
        recvs: list[tuple[str, ast.Call]] = []
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            receiver = connection_receiver(node.func.value)
            if not receiver:
                continue
            if node.func.attr == "poll" and (node.args or node.keywords):
                polled.add(receiver)
            elif node.func.attr == "recv":
                recvs.append((receiver, node))
        for receiver, node in recvs:
            if receiver not in polled:
                yield self.finding(
                    "error",
                    source.relpath,
                    node.lineno,
                    node.col_offset,
                    f"{receiver}.recv() has no poll(timeout) guard in this "
                    f"function — recv blocks forever on a hung-but-alive "
                    f"peer (EOF only fires for dead ones); poll a deadline "
                    f"first, or pragma a deliberate blocking wait",
                    symbol=source.module,
                )

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def _bound_names(
        fn: ast.AST, call: ast.Call
    ) -> tuple[list[str], str | None] | None:
        """How the acquisition is bound: ``(local_names, self_field)``.

        ``None`` means unbound (an expression statement or a target too
        dynamic to track). ``self_field`` is set for the direct
        ``self.x = Process(...)`` form.
        """
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign) or node.value is not call:
                continue
            if len(node.targets) != 1:
                return None
            target = node.targets[0]
            if isinstance(target, ast.Name):
                return [target.id], None
            if isinstance(target, (ast.Tuple, ast.List)):
                names = [el.id for el in target.elts if isinstance(el, ast.Name)]
                return (names, None) if len(names) == len(target.elts) else None
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                return [], target.attr
            return None
        return None

    @staticmethod
    def _methods_called_on(fn: ast.AST, name: str) -> set[str]:
        out: set[str] = set()
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                out.add(node.func.attr)
        return out

    @staticmethod
    def _transfer_field(fn: ast.AST, name: str) -> str | None:
        """The ``self.<field>`` the local ``name`` is stored into, if any."""
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target, value = node.targets[0], node.value
            pairs: list[tuple[ast.expr, ast.expr]] = []
            if isinstance(target, (ast.Tuple, ast.List)) and isinstance(
                value, (ast.Tuple, ast.List)
            ):
                if len(target.elts) == len(value.elts):
                    pairs = list(zip(target.elts, value.elts))
            else:
                pairs = [(target, value)]
            for tgt, val in pairs:
                if (
                    isinstance(val, ast.Name)
                    and val.id == name
                    and isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                ):
                    return tgt.attr
        return None

    @staticmethod
    def _is_returned(fn: ast.AST, name: str) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
        return False

    @staticmethod
    def _is_daemon(call: ast.Call) -> bool:
        for kw in call.keywords:
            if kw.arg == "daemon":
                return isinstance(kw.value, ast.Constant) and kw.value.value is True
        return False
