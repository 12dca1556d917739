"""Shared AST helpers for the built-in checkers."""

from __future__ import annotations

import ast

#: Marker for one dynamic segment inside a statically-extracted string.
WILDCARD = "*"


def dotted_name(node: ast.expr) -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def loop_string_bindings(scope: ast.AST) -> dict[str, list[str]]:
    """Names bound by ``for x in ("a", "b")`` loops/comprehensions in ``scope``.

    Lets the metric extractor resolve ``OperatorProbe(reg, name) for name
    in ("clean", "synopses", ...)`` to the concrete operator names rather
    than collapsing them all to a wildcard.
    """
    bindings: dict[str, list[str]] = {}

    def literal_strings(expr: ast.expr) -> list[str] | None:
        if isinstance(expr, (ast.Tuple, ast.List)):
            values = []
            for el in expr.elts:
                if isinstance(el, ast.Constant) and isinstance(el.value, str):
                    values.append(el.value)
                else:
                    return None
            return values
        return None

    for node in ast.walk(scope):
        target: ast.expr | None = None
        it: ast.expr | None = None
        if isinstance(node, ast.For):
            target, it = node.target, node.iter
        elif isinstance(node, ast.comprehension):
            target, it = node.target, node.iter
        if target is None or it is None or not isinstance(target, ast.Name):
            continue
        values = literal_strings(it)
        if values:
            bindings.setdefault(target.id, []).extend(values)
    # Straight-line string assignments (`base = f"broker.topic.{t.name}"`)
    # resolve through one level, so a name built from a prefix variable
    # keeps its structure instead of collapsing to a bare wildcard. A name
    # assigned more than once keeps every candidate (order is ignored —
    # good enough for prefix variables, which are single-assignment).
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, (ast.Constant, ast.JoinedStr))
        ):
            values = resolve_strings(node.value, bindings)
            if values != [WILDCARD]:
                bindings.setdefault(node.targets[0].id, []).extend(values)
    return bindings


def resolve_strings(
    expr: ast.expr, bindings: dict[str, list[str]] | None = None
) -> list[str]:
    """Every string ``expr`` can statically evaluate to.

    * string constant -> itself;
    * f-string -> the literal parts with :data:`WILDCARD` for each
      formatted value (``f"kg.queries.{plan}"`` -> ``"kg.queries.*"``);
    * a name bound by a literal loop (see :func:`loop_string_bindings`)
      -> each bound value;
    * anything else -> ``["*"]`` (fully dynamic).
    """
    if isinstance(expr, ast.Constant):
        return [expr.value] if isinstance(expr.value, str) else []
    if isinstance(expr, ast.JoinedStr):
        pieces = [""]
        for part in expr.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                pieces = [p + part.value for p in pieces]
            elif isinstance(part, ast.FormattedValue):
                sub = resolve_strings(part.value, bindings)
                if sub and all(s != WILDCARD for s in sub):
                    pieces = [p + s for p in pieces for s in sub]
                else:
                    pieces = [p + WILDCARD for p in pieces]
        return pieces
    if isinstance(expr, ast.Name) and bindings and expr.id in bindings:
        return list(bindings[expr.id])
    return [WILDCARD]

