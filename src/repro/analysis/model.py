"""The project model: parsed source files, imports, pragmas, findings.

Checkers never touch the filesystem themselves — a :class:`Project` is
built once (every file parsed once) and handed to each checker, so a
full run costs one AST parse per file regardless of how many checkers
inspect it. Files are grouped into *realms* (``src``, ``benchmarks``,
``examples``) so checkers can scope themselves: layering and
determinism apply to ``src`` only, while metric extraction also reads
the benchmarks that name probe operators. ``tests/`` is not scanned: no
checker reads it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

#: Finding severities, least to most severe. Only ``error`` findings
#: fail the run (see :mod:`~repro.analysis.runner`).
SEVERITIES = ("info", "warning", "error")

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*disable=([a-z0-9_,\- ]+|all)", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a checker."""

    check: str
    severity: str       # "info" | "warning" | "error"
    path: str           # repo-relative posix path
    line: int           # 1-based; 0 for file-level findings
    col: int
    message: str
    symbol: str = ""    # dotted symbol the finding anchors to, when known

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.symbol:
            out["symbol"] = self.symbol
        return out


@dataclass
class SourceFile:
    """One parsed python file plus the line-level pragma table."""

    path: Path            # absolute
    relpath: str          # repo-relative posix
    realm: str            # "src" | "benchmarks" | "examples"
    module: str           # dotted module name ("repro.streams.broker")
    text: str
    tree: ast.AST | None  # None when the file failed to parse
    parse_error: str = ""
    #: line number -> set of check names disabled on that line ("all" allowed)
    pragmas: dict[int, set[str]] = field(default_factory=dict)

    @property
    def lines(self) -> list[str]:
        return self.text.splitlines()

    def line_text(self, line: int) -> str:
        lines = self.lines
        if 1 <= line <= len(lines):
            return lines[line - 1]
        return ""

    def suppressed_checks(self, line: int) -> set[str]:
        """Checks disabled at ``line`` — by an inline pragma on the line
        itself, or by a pragma anywhere in the contiguous comment block
        immediately above it (so a justification can span lines)."""
        out = set(self.pragmas.get(line, ()))
        above = line - 1
        while above >= 1 and self.line_text(above).lstrip().startswith("#"):
            out |= self.pragmas.get(above, set())
            above -= 1
        return out


def _scan_pragmas(text: str) -> dict[int, set[str]]:
    pragmas: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "reprolint" not in line:
            continue
        m = _PRAGMA_RE.search(line)
        if m is None:
            continue
        names = {part.strip().lower() for part in m.group(1).split(",") if part.strip()}
        if names:
            pragmas[lineno] = names
    return pragmas


#: Directories never scanned, wherever they appear.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


class Project:
    """Every parsed source file of the repository, grouped by realm."""

    def __init__(self, root: Path, files: list[SourceFile]):
        self.root = root
        self.files = files
        self._by_relpath = {f.relpath: f for f in files}

    @classmethod
    def discover(cls, root: Path, package: str = "repro") -> "Project":
        """Parse the project rooted at ``root`` (the repository root).

        Scans ``src/<package>`` as realm ``src`` and ``benchmarks/``,
        ``examples/`` under their own realm names. Missing
        directories are simply skipped, so fixture projects can be as
        small as one file.
        """
        root = root.resolve()
        files: list[SourceFile] = []
        realms = [
            (root / "src" / package, "src"),
            (root / "benchmarks", "benchmarks"),
            (root / "examples", "examples"),
        ]
        for base, realm in realms:
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                if _SKIP_DIRS.intersection(path.parts):
                    continue
                files.append(cls._load(root, path, realm, package))
        return cls(root, files)

    @staticmethod
    def _load(root: Path, path: Path, realm: str, package: str) -> SourceFile:
        relpath = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        if realm == "src":
            parts = path.relative_to(root / "src").with_suffix("").parts
            parts = tuple(p for p in parts if p != "__init__")
            module = ".".join(parts) or package
        else:
            module = f"{realm}.{path.stem}"
        tree: ast.AST | None = None
        error = ""
        try:
            tree = ast.parse(text, filename=relpath)
        except SyntaxError as exc:
            error = f"{exc.msg} (line {exc.lineno})"
        return SourceFile(
            path=path,
            relpath=relpath,
            realm=realm,
            module=module,
            text=text,
            tree=tree,
            parse_error=error,
            pragmas=_scan_pragmas(text),
        )

    # -- views -------------------------------------------------------------------

    def realm(self, *realms: str) -> list[SourceFile]:
        return [f for f in self.files if f.realm in realms]

    def file(self, relpath: str) -> SourceFile | None:
        return self._by_relpath.get(relpath)

    def parse_failures(self) -> list[Finding]:
        """Unparseable files as findings (no checker can inspect them)."""
        return [
            Finding(
                check="parse",
                severity="error",
                path=f.relpath,
                line=1,
                col=0,
                message=f"file does not parse: {f.parse_error}",
            )
            for f in self.files
            if f.tree is None
        ]


# -- import resolution -----------------------------------------------------------


@dataclass(frozen=True)
class ImportEdge:
    """One resolved import statement inside a module."""

    module: str            # the imported module, absolute dotted path
    line: int
    col: int
    type_checking: bool    # inside an `if TYPE_CHECKING:` block


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def module_imports(source: SourceFile) -> list[ImportEdge]:
    """Every import of ``source``, with relative imports resolved.

    Imports under ``if TYPE_CHECKING:`` are tagged — they never execute,
    so layering treats them as annotations, not dependencies.
    """
    if source.tree is None:
        return []
    edges: list[ImportEdge] = []
    type_checking_ranges: list[tuple[int, int]] = []
    for node in ast.walk(source.tree):
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            last = node.body[-1]
            type_checking_ranges.append((node.lineno, last.end_lineno or last.lineno))

    def in_type_checking(line: int) -> bool:
        return any(lo <= line <= hi for lo, hi in type_checking_ranges)

    # The package containing this module: "repro.streams.broker" lives in
    # "repro.streams"; a package __init__ maps to the package itself.
    if source.path.name == "__init__.py":
        container = source.module
    else:
        container, _, _ = source.module.rpartition(".")
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges.append(
                    ImportEdge(alias.name, node.lineno, node.col_offset, in_type_checking(node.lineno))
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                parts = container.split(".") if container else []
                parts = parts[: len(parts) - (node.level - 1)]
                base = ".".join(parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            if base:
                edges.append(
                    ImportEdge(base, node.lineno, node.col_offset, in_type_checking(node.lineno))
                )
    return edges
