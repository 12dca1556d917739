"""Loading the declarative analysis configuration (``tools/layering.toml``).

The layering DAG is *data*, not code: which subpackage may import which
is declared in one committed TOML file that the layering checker
enforces and the docs reproduce. Python 3.11+ reads it with the stdlib
``tomllib``; on 3.10 a minimal parser handles the subset this file
actually uses (dotted table headers, string and string-array values),
so the analysis layer stays dependency-free everywhere CI runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

try:
    import tomllib
except ImportError:  # Python 3.10: fall back to the minimal parser below
    tomllib = None

_HEADER_RE = re.compile(r"^\[([A-Za-z0-9_.\-]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_\-]+)\s*=\s*(.+)$")


class ConfigError(Exception):
    """Malformed or inconsistent analysis configuration."""


def _parse_value(raw: str, where: str):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ConfigError(f"{where}: unterminated array: {raw!r}")
        body = raw[1:-1].strip()
        if not body:
            return []
        return [_parse_value(part, where) for part in body.split(",") if part.strip()]
    raise ConfigError(f"{where}: only strings and string arrays are supported: {raw!r}")


def parse_minimal_toml(text: str, where: str = "<toml>") -> dict:
    """Parse the TOML subset ``layering.toml`` uses (3.10 fallback).

    Supports comments, ``[dotted.table]`` headers, ``key = "string"``
    and ``key = ["a", "b"]`` (arrays may span lines). Anything fancier
    is a :class:`ConfigError` — the committed config should not use it.
    """
    doc: dict = {}
    table = doc
    pending = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = (pending + " " + line.split("#", 1)[0]).strip() if pending else line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and not pending:
            m = _HEADER_RE.match(stripped)
            if m is None:
                raise ConfigError(f"{where}:{lineno}: bad table header: {stripped!r}")
            table = doc
            for part in m.group(1).split("."):
                table = table.setdefault(part, {})
            continue
        if "=" in stripped and stripped.count("[") > stripped.count("]"):
            pending = stripped  # multiline array: keep accumulating
            continue
        pending = ""
        m = _KEY_RE.match(stripped)
        if m is None:
            raise ConfigError(f"{where}:{lineno}: expected `key = value`: {stripped!r}")
        table[m.group(1)] = _parse_value(m.group(2), f"{where}:{lineno}")
    if pending:
        raise ConfigError(f"{where}: unterminated multiline array at end of file")
    return doc


def load_toml(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    if tomllib is not None:
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return parse_minimal_toml(text, where=str(path))


@dataclass
class LayeringConfig:
    """The declared architecture DAG.

    ``allow`` maps each subpackage of ``package`` to the subpackages it
    may import at runtime (self-imports are always allowed; the package
    facade ``__init__`` is declared under the package name itself).
    ``forbid`` carries emphasised prohibitions with a human reason, so
    the finding can say *why* an edge is illegal, not just that it is.
    """

    package: str = "repro"
    allow: dict[str, list[str]] = field(default_factory=dict)
    forbid: dict[str, dict[str, str]] = field(default_factory=dict)

    def declared(self) -> set[str]:
        return set(self.allow)

    def validate(self) -> None:
        """Reject a config whose *declared* DAG already has a cycle."""
        for pkg, deps in self.allow.items():
            for dep in deps:
                if dep != self.package and dep not in self.allow:
                    raise ConfigError(
                        f"layering: {pkg!r} allows undeclared package {dep!r}"
                    )
        state: dict[str, int] = {}

        def visit(node: str, stack: list[str]) -> None:
            state[node] = 1
            for dep in self.allow.get(node, ()):
                if state.get(dep) == 1:
                    cycle = " -> ".join(stack + [node, dep])
                    raise ConfigError(f"layering: declared DAG has a cycle: {cycle}")
                if state.get(dep, 0) == 0:
                    visit(dep, stack + [node])
            state[node] = 2

        for pkg in self.allow:
            if state.get(pkg, 0) == 0:
                visit(pkg, [])


@dataclass
class AnalysisConfig:
    """Everything the checkers read from disk besides the sources."""

    root: Path
    layering: LayeringConfig | None = None

    @classmethod
    def load(cls, root: Path, layering_path: Path | None = None) -> "AnalysisConfig":
        root = Path(root).resolve()
        path = layering_path or root / "tools" / "layering.toml"
        layering = None
        if path.is_file():
            doc = load_toml(path)
            allow = {k: list(v) for k, v in doc.get("allow", {}).items()}
            forbid = {
                pkg: dict(entries) for pkg, entries in doc.get("forbid", {}).items()
            }
            layering = LayeringConfig(
                package=doc.get("package", "repro"), allow=allow, forbid=forbid
            )
            layering.validate()
        return cls(root=root, layering=layering)
