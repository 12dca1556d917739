"""Repository invariants: rules over the source tree and a live registry.

* **Layering** — the package DAG of the datAcron stack (EDBT 2018,
  Fig. 2): every runtime import between ``repro`` subpackages is
  declared in :data:`ALLOW`.
* **Determinism** — event-time code reads no wall clock and no global
  RNG, so a replay of the same records yields the same outputs.
* **Hygiene** — no mutable default argument; no bare ``except:``; a
  broad or a swallowing ``except`` carries a reason comment.
* **Metric names** — every name a real run registers is a dotted path
  under a known root, which is what the health rules' globs bind to.
* **Reachability** — every public top-level name in ``src/repro``, every
  public method, property and plain class attribute of a reached class,
  and every defaulted parameter of a reached function, method or
  ``__init__`` is reached from ``core``, ``benchmarks/`` or ``examples/``
  (a parameter: set by a reached call), or is kept on purpose in
  :data:`KEEP`: no production code and no option exists only for tests.
"""

from __future__ import annotations

import ast
import functools
import graphlib
import io
import math
import re
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _python_files(*dirs: Path) -> list[Path]:
    return sorted(p for d in dirs for p in d.rglob("*.py"))


def _dotted(node: ast.expr) -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` otherwise."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


# -- layering -------------------------------------------------------------------

#: The subpackages each subpackage of ``repro`` may import at runtime
#: (itself always; ``repro`` is the package facade). ``geo`` and
#: ``streams`` are the foundation; the domain components import it and
#: each other strictly downward; ``obs`` imports nothing, so every layer
#: stays importable without it; only ``core`` wires everything together.
ALLOW: dict[str, set[str]] = {
    "repro": {"core"},
    # A leaf library: it must not know it is being measured (no obs).
    "geo": set(),
    # The substrate must stay importable and testable without obs, which
    # instruments it from the outside.
    "streams": set(),
    "obs": set(),
    # Not core: sources feed both the real-time and the batch layer, and
    # depending on the integration layer would invert the dataflow.
    "datasources": {"geo"},
    "synopses": {"geo", "streams"},
    "cep": {"synopses"},
    "insitu": {"datasources", "geo"},
    "rdf": {"datasources", "geo", "synopses"},
    # Not obs: the store duck-types its registry parameter, and a runtime
    # obs import would drag metrics into the storage layer.
    "kgstore": {"geo", "rdf"},
    "linkdiscovery": {"datasources", "geo"},
    "prediction": {"datasources", "geo"},
    "analytics": {"datasources", "geo", "synopses"},
    "va": {"geo", "insitu", "obs", "prediction", "synopses"},
    "core": {
        "analytics", "cep", "datasources", "geo", "insitu", "kgstore",
        "linkdiscovery", "obs", "rdf", "streams", "synopses", "va",
    },
}


def _runtime_imports(path: Path):
    """``(line, module)`` for each import of ``path`` that executes — not
    under ``if TYPE_CHECKING:`` — with relative imports resolved against
    the file's package. A ``from`` import yields ``module.name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    annotations_only = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and _dotted(block.test).split(".")[-1] == "TYPE_CHECKING"
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    package = path.parent.relative_to(SRC.parent).parts
    for node in ast.walk(tree):
        if id(node) in annotations_only:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) + 1 - node.level]) if node.level else []
            base += [node.module] if node.module else []
            for alias in node.names:
                yield node.lineno, ".".join([*base, alias.name])


def test_every_runtime_import_between_subpackages_is_declared():
    violations = []
    for path in _python_files(SRC):
        relative = path.relative_to(SRC).parts
        importer = relative[0] if len(relative) > 1 else "repro"
        for line, module in _runtime_imports(path):
            root, _, rest = module.partition(".")
            imported = rest.partition(".")[0]
            if root == "repro" and imported and imported not in {importer, *ALLOW.get(importer, ())}:
                violations.append(f"{path.relative_to(ROOT)}:{line}: {importer} imports {imported}")
    assert violations == []


def test_every_subpackage_on_disk_is_declared():
    on_disk = {p.name for p in SRC.iterdir() if p.is_dir() and any(p.glob("*.py"))}
    assert on_disk | {"repro"} == set(ALLOW)


def test_the_declared_dag_is_acyclic():
    """Every observed edge is declared, so none can close a cycle."""
    assert set().union(*ALLOW.values()) <= set(ALLOW)
    graphlib.TopologicalSorter(ALLOW).prepare()


# -- determinism ----------------------------------------------------------------

#: Where event time is mandatory. ``time.perf_counter`` stays allowed: it
#: measures durations for probes and never enters a record.
EVENT_TIME_PACKAGES = ("streams", "cep")

WALL_CLOCK = {
    "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.datetime.now", "datetime.datetime.utcnow",
    "date.today", "datetime.date.today",
}

#: Module-level functions of ``random`` and ``np.random``: global state.
GLOBAL_RANDOM = {
    "betavariate", "choice", "choices", "expovariate", "gauss", "getrandbits",
    "normalvariate", "paretovariate", "randbytes", "randint", "random",
    "randrange", "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
}
GLOBAL_NP_RANDOM = {
    "beta", "binomial", "choice", "exponential", "normal", "permutation",
    "poisson", "rand", "randint", "randn", "random", "random_sample",
    "seed", "shuffle", "standard_normal", "uniform",
}


def _nondeterministic(call: ast.Call) -> bool:
    name = _dotted(call.func)
    *module, func = name.split(".")
    unseeded = not call.args and not call.keywords
    return (
        name in WALL_CLOCK
        or (module == ["random"] and func in GLOBAL_RANDOM)
        or (module in (["np", "random"], ["numpy", "random"]) and func in GLOBAL_NP_RANDOM)
        or (unseeded and (name in ("random.Random", "Random") or func == "default_rng"))
    )


def test_event_time_code_reads_no_wall_clock_and_no_global_rng():
    flagged = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {ast.unparse(node)}"
        for path in _python_files(*(SRC / pkg for pkg in EVENT_TIME_PACKAGES))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _nondeterministic(node)
    ]
    assert flagged == []


# -- hygiene --------------------------------------------------------------------

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def _is_mutable(default: ast.expr | None) -> bool:
    if isinstance(default, ast.Call):
        return _dotted(default.func).split(".")[-1] in _MUTABLE_CALLS
    return isinstance(default, _MUTABLE_LITERALS)


def _hygiene_defects(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    comments = {
        tok.start[0]
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type == tokenize.COMMENT
    }
    defects = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            if any(map(_is_mutable, args.defaults + args.kw_defaults)):
                defects.append(f"{node.lineno}: mutable default")
        elif isinstance(node, ast.ExceptHandler):
            # The reason sits on the handler line, between it and its first
            # statement, on that statement's line, or right above the handler.
            reasoned = lines[node.lineno - 2].lstrip().startswith("#") or any(
                line in comments for line in range(node.lineno, node.body[0].lineno + 1)
            )
            broad = node.type is not None and _dotted(node.type).split(".")[-1] in (
                "Exception", "BaseException",
            )
            swallows = all(
                isinstance(stmt, ast.Pass)
                or (isinstance(stmt, ast.Expr) and getattr(stmt.value, "value", None) is Ellipsis)
                for stmt in node.body
            )
            if node.type is None:
                defects.append(f"{node.lineno}: bare except")
            elif (broad or swallows) and not reasoned:
                defects.append(f"{node.lineno}: {'broad' if broad else 'swallowed'} except without a reason")
    return [f"{path.relative_to(ROOT)}:{defect}" for defect in defects]


def test_no_mutable_default_and_no_unreasoned_broad_or_swallowing_except():
    files = _python_files(SRC, ROOT / "benchmarks", ROOT / "examples")
    assert [defect for path in files for defect in _hygiene_defects(path)] == []


# -- metric names ---------------------------------------------------------------

METRIC_NAME = re.compile(r"[a-z0-9_]+(\.[a-z0-9_]+)+")
METRIC_ROOTS = {
    "op", "kg", "cep", "batch", "broker", "realtime", "shard", "stage", "synopses",
    "linkdiscovery", "prediction", "dashboard", "throughput", "e2e", "ipc",
}


def test_every_registered_metric_name_is_dotted_under_a_known_root(live_system):
    snapshot = live_system.metrics.snapshot()
    names = [name for kind in ("counters", "gauges", "histograms") for name in snapshot[kind]]
    assert len(names) > 50
    assert [
        name
        for name in names
        if METRIC_NAME.fullmatch(name) is None or name.split(".")[0] not in METRIC_ROOTS
    ] == []


# -- reachability ---------------------------------------------------------------

#: What no root reaches or sets, each with the reason it stays. A key is a
#: public top-level ``Name``, a ``Class.member`` or a defaulted parameter
#: ``func(param)`` / ``Class.method(param)`` / ``Class(param)`` (of
#: ``__init__``). A kept class keeps its members, not its options. An
#: entry must name a defined key that fails its rule without it, and give
#: one of the reasons :data:`KEEP_REASON` admits.
KEEP: dict[str, str] = {
    # Open ROADMAP items. Terrestrial + satellite fusion: the planned
    # late-fix reorder buffer wires it in, or it goes with these entries.
    "CrossStreamFuser": "item 3: cross-stream fusion, pending the reorder buffer",
    "CrossStreamFuser(dedup_window_s)": "item 3: cross-stream fusion, pending the reorder buffer",
    "CrossStreamFuser(max_speed_ms)": "item 3: cross-stream fusion, pending the reorder buffer",
    "degrade_stream": "item 3: the satellite-feed model CrossStreamFuser is tested on",
    "degrade_stream(latency_s)": "item 3: the satellite-feed model CrossStreamFuser is tested on",
    "degrade_stream(seed)": "item 3: the satellite-feed model CrossStreamFuser is tested on",
    # The batch view in columns moves the one-record form beside the interpreter.
    "GraphTemplate.instantiate": "item 21: the one-record form the template properties drive",
    # The planned forecast stage puts FLP on the synopses stream.
    "ErrorFeedbackPredictor": "item 7: online FLP with error feedback, pending the forecast stage",
    "ErrorFeedbackPredictor(alpha)": "item 7: online FLP with error feedback, pending the forecast stage",
    "ErrorFeedbackPredictor(mode)": "item 7: online FLP with error feedback, pending the forecast stage",
    # The export surface the README documents; the server reaches
    # render_openmetrics.
    "parse_openmetrics": "item 14: reads an OpenMetrics export back",
    # The deployment surface: exports, settings and bounds.
    "MetricsServer": "deployment: serves /metrics and /healthz to an outside scraper",
    "JsonlSink": "deployment: writes structured events as JSON lines",
    "MetricsServer(host)": "deployment: the interface the scrape endpoint binds",
    "MetricsServer(port)": "deployment: the port the scrape endpoint binds",
    "MetricsServer(health)": "deployment: the monitor /healthz reports",
    "EventLog(sink)": "deployment: where structured events are written (a JsonlSink)",
    "Broker.create_topic(retention)": "deployment: a topic's retention bound",
    "shard_hosts(request_timeout_s)": "deployment: the worker request deadline",
    # Test-fake injection points.
    "EventLog(clock)": "test fake: a deterministic wall clock for event stamps",
    "Tracer(clock)": "test fake: a deterministic clock for span timings",
    "WorkerHost(context)": "test fake: the spawn-context pickling test",
    "WorkerHost(start)": "test fake: the protocol tests start the host under a scripted peer",
    # References for a production path.
    "Topic.publish": "reference: the per-record publish that publish_many must equal",
}

#: An open ROADMAP item that names it, a deployment setting, a test-fake
#: injection point, or the reference a production path must equal.
KEEP_REASON = re.compile(r"(item \d+|deployment|test fake|reference): \S")

#: The roots: every top-level name of the integration layer, and every
#: name the benchmarks and the examples read.
CORE = SRC / "core"
REACH_ROOTS = (ROOT / "benchmarks", ROOT / "examples")


def _identifiers(node: ast.AST) -> set[str]:
    """Every ``Name`` id and ``Attribute`` attr read under ``node``: where a
    name is used, not where it is imported or assigned."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    }


class _Def(NamedTuple):
    """A unit of reachability. ``name`` is ``None`` for a module-level
    statement (it runs on import); ``cls`` is the class a member belongs
    to. A top-level class's own unit holds its header and every body
    statement that is not a member: fields, dunders and, of a ``_private``
    class, everything. ``scope`` is the class the nodes' ``super()`` and
    ``cls()`` calls refer to."""

    path: Path
    cls: ast.ClassDef | None
    name: str | None
    nodes: tuple[ast.AST, ...]
    scope: ast.ClassDef | None = None


def _is_member(stmt: ast.stmt) -> str | None:
    """The member name a class-body statement defines: a method, property
    or plain class attribute that is not a dunder."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        name = stmt.name
    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
        name = stmt.targets[0].id
    else:
        return None
    return None if name.startswith("__") else name


@functools.cache
def _definitions() -> tuple[_Def, ...]:
    """The units of every ``src/repro`` module outside ``__init__.py``."""
    found = []
    for path in _python_files(SRC):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(_Def(path, None, stmt.name, (stmt,)))
            elif isinstance(stmt, ast.ClassDef):
                public = not stmt.name.startswith("_")
                members: dict[str, list[ast.stmt]] = {}
                own: list[ast.AST] = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
                for sub in stmt.body:
                    name = _is_member(sub) if public else None
                    if name is None:
                        own.append(sub)
                    else:
                        members.setdefault(name, []).append(sub)
                found.append(_Def(path, None, stmt.name, tuple(own), stmt))
                found += [_Def(path, stmt, name, tuple(nodes), stmt) for name, nodes in members.items()]
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                found.append(_Def(path, None, None, (stmt,)))
    return tuple(found)


def _key(definition: _Def) -> str:
    return definition.name if definition.cls is None else f"{definition.cls.name}.{definition.name}"


def _calls(node: ast.AST, cls: ast.ClassDef | None = None):
    """``(call, enclosing class)`` for each call under ``node``."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.Call):
            yield sub, cls
        yield from _calls(sub, sub if isinstance(sub, ast.ClassDef) else cls)


@functools.cache
def _roots() -> tuple[frozenset[str], tuple]:
    """The names the roots use, and the calls of the root files."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in _python_files(*REACH_ROOTS)]
    core = (unit.name for unit in _definitions() if unit.cls is None and unit.path.is_relative_to(CORE))
    return (
        frozenset(core).union(*map(_identifiers, trees)) - {None},
        tuple(call for tree in trees for call in _calls(tree)),
    )


def _reach(keep: frozenset[str]) -> tuple[set[_Def], list]:
    """The units reached from the roots and ``keep``, and every call in
    them. A module statement is always reached; a public top-level name
    when reached code reads it; a ``_private`` one when reached code of
    its own module reads it; a member when its class is reached and
    reached code reads its name, or it or its class is kept."""
    identifiers, calls = _roots()
    used = set(identifiers) | {key for key in keep if "." not in key and "(" not in key}
    used_in: dict[Path, set[str]] = {}
    classes: set[tuple[Path, str]] = set()
    walked: set[_Def] = set()
    calls = list(calls)

    def is_reached(unit: _Def) -> bool:
        if unit.name is None:
            return True
        if unit.cls is not None:
            return (unit.path, unit.cls.name) in classes and (
                unit.name in used or unit.cls.name in keep or _key(unit) in keep
            )
        if unit.name.startswith("_"):
            return unit.name in used_in.get(unit.path, ())
        return unit.name in used

    pending = list(_definitions())
    while ready := [unit for unit in pending if is_reached(unit)]:
        for unit in ready:
            pending.remove(unit)
            walked.add(unit)
            if unit.cls is None and unit.scope is not None:
                classes.add((unit.path, unit.name))
            for node in unit.nodes:
                names = _identifiers(node)
                used |= names
                used_in.setdefault(unit.path, set()).update(names)
                calls += _calls(node, unit.scope)
    return walked, calls


def _parameters(unit: _Def):
    """``(call name, key, index, name)`` for each defaulted parameter of a
    public function, method or ``__init__`` in ``unit``; ``index`` is its
    position in a call, ``inf`` if only a keyword sets it."""
    if unit.name is None or unit.name.startswith("_"):
        return
    for node in unit.nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if unit.cls is not None:
            static = any(_dotted(d) == "staticmethod" for d in node.decorator_list)
            called, key, skip = node.name, _key(unit), int(not static)
        elif node.name in (unit.name, "__init__"):
            called, key, skip = unit.name, unit.name, int(node.name == "__init__")
        else:
            continue
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            yield called, f"{key}({arg.arg})", index - skip, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield called, f"{key}({arg.arg})", math.inf, arg.arg


def _call_shapes(calls) -> dict[str, list[tuple[float, set[str] | None]]]:
    """By callee name: how many positional arguments each call passes
    (``inf`` with a ``*args``) and which keywords (``None`` with a
    ``**kwargs``). ``super().__init__`` calls the bases, ``cls()`` its
    class."""
    shapes: dict[str, list] = {}
    for call, cls in calls:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "__init__" and cls is not None:
            names = [_dotted(base).split(".")[-1] for base in cls.bases]
        elif isinstance(func, ast.Name) and func.id == "cls" and cls is not None:
            names = [cls.name]
        elif isinstance(func, (ast.Name, ast.Attribute)):
            names = [func.id if isinstance(func, ast.Name) else func.attr]
        else:
            continue
        positional = math.inf if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
        keywords = None if any(k.arg is None for k in call.keywords) else {k.arg for k in call.keywords}
        for name in names:
            shapes.setdefault(name, []).append((positional, keywords))
    return shapes


def _findings(keep: frozenset[str]) -> list[str]:
    """Each public name or member no root reaches, and each defaulted
    parameter of a reached one that no reached call sets, minus ``keep``."""
    walked, calls = _reach(keep)
    classes = {(unit.path, unit.name) for unit in walked if unit.cls is None}
    unreached = [
        _key(unit)
        for unit in _definitions()
        if unit not in walked
        and unit.name is not None
        and not unit.name.startswith("_")
        and (unit.cls is None or (unit.path, unit.cls.name) in classes)
    ]
    shapes = _call_shapes(calls)
    unset = [
        key
        for unit in walked
        for called, key, index, name in _parameters(unit)
        if not any(
            index < positional or keywords is None or name in keywords
            for positional, keywords in shapes.get(called, ())
        )
    ]
    return sorted(set(unreached + unset) - keep)


def test_every_public_src_name_is_reached_or_kept():
    assert _findings(frozenset(KEEP)) == []


def test_every_keep_entry_is_defined_and_needed():
    defined = {_key(unit) for unit in _definitions() if unit.name}
    defined |= {key for unit in _definitions() for _, key, _, _ in _parameters(unit)}
    assert sorted(set(KEEP) - defined) == []
    # An option's entry decides nothing about reach, so one pass judges them all.
    names = frozenset(key for key in KEEP if "(" not in key)
    assert sorted(set(KEEP) - names - set(_findings(names))) == []
    assert [key for key in names if key not in _findings(frozenset(KEEP) - {key})] == []


def test_every_keep_entry_gives_an_admitted_reason():
    assert [key for key, why in KEEP.items() if KEEP_REASON.match(why) is None] == []
