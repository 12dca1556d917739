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
* **Reachability** — every public top-level name in ``src/repro`` is
  reached from ``core``, ``benchmarks/`` or ``examples/``, or is kept on
  purpose in :data:`KEEP`: no production code exists only for tests.
"""

from __future__ import annotations

import ast
import functools
import graphlib
import io
import re
import tokenize
from pathlib import Path

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

#: Public names no root reaches, each with the reason it stays. An entry
#: must name a defined name that is unreachable without it.
KEEP: dict[str, str] = {
    # Terrestrial + satellite fusion: the planned late-fix reorder buffer
    # wires it in, or it goes with these entries.
    "CrossStreamFuser": "cross-stream fusion, pending the reorder buffer",
    "degrade_stream": "the satellite-feed model CrossStreamFuser is tested on",
    # The planned forecast stage puts FLP on the synopses stream.
    "ErrorFeedbackPredictor": "online FLP with error feedback, pending the forecast stage",
    # The operator export surface the README documents; the server
    # reaches render_openmetrics.
    "MetricsServer": "serves /metrics and /healthz to an outside scraper",
    "parse_openmetrics": "reads an OpenMetrics export back",
    "JsonlSink": "writes structured events as JSON lines",
}

#: Where a name counts as used: the integration layer, the benchmarks and
#: the examples.
REACH_ROOTS = (SRC / "core", ROOT / "benchmarks", ROOT / "examples")


def _identifiers(node: ast.AST) -> set[str]:
    """Every ``Name`` id, ``Attribute`` attr and import alias under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
    return found


@functools.cache
def _definitions() -> list[tuple[Path, str | None, ast.stmt]]:
    """``(module, name, node)`` for each top-level def/class of ``src/repro``
    outside ``__init__.py``, plus ``(module, None, stmt)`` for each other
    module-level statement: those run on import."""
    found = []
    for path in _python_files(SRC):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((path, stmt.name, stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                found.append((path, None, stmt))
    return found


@functools.cache
def _root_identifiers() -> frozenset[str]:
    return frozenset(
        name
        for path in _python_files(*REACH_ROOTS)
        for name in _identifiers(ast.parse(path.read_text(encoding="utf-8")))
    )


def _reached(roots: set[str]) -> set[str]:
    """The public names reached from ``roots``. A reached definition reaches
    every identifier in it; a ``_private`` one resolves only in its module."""
    public: dict[str, list] = {}
    private: dict[tuple, list] = {}
    pending = []
    for path, name, node in _definitions():
        if name is None:
            pending.append((path, node))
        elif name.startswith("_"):
            private.setdefault((path, name), []).append(node)
        else:
            public.setdefault(name, []).append((path, node))
    reached = {name for name in roots if name in public}
    pending += [entry for name in reached for entry in public[name]]
    seen_private = set()
    while pending:
        path, node = pending.pop()
        for name in _identifiers(node):
            if name in public and name not in reached:
                reached.add(name)
                pending += public[name]
            elif (path, name) in private and (path, name) not in seen_private:
                seen_private.add((path, name))
                pending += [(path, sub) for sub in private[path, name]]
    return reached


def test_every_public_src_name_is_reached_or_kept():
    defined = {name for _, name, _ in _definitions() if name and not name.startswith("_")}
    reached = _reached(_root_identifiers() | set(KEEP))
    assert sorted(defined - reached) == []


def test_every_keep_entry_is_defined_and_needed():
    defined = {name for _, name, _ in _definitions()}
    assert sorted(set(KEEP) - defined) == []
    assert [
        name for name in KEEP if name in _reached(_root_identifiers() | (set(KEEP) - {name}))
    ] == []
