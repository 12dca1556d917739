"""Graph templates interpreted node by node: the oracle of ``GraphTemplate.instantiate``.

``repro.rdf.GraphTemplate`` compiles its patterns once, at construction,
and binds every record into one dict that its generators extend in
place. This module is the interpreter it replaced: a variable vector
that layers the generated variables over the source record and hands
every generator and callable node a fresh merged copy, and a per-node
``isinstance`` dispatch on every instantiation (its coercion takes a
bound blank node or numpy scalar, as the template's does). It shares no
compiled row or binding dict with the template, only the template's own
``patterns`` and ``generators``, so both must give the same triples in
the same order, or fail with the same exception and message.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.rdf import IRI, BlankNode, GraphTemplate, Literal, TemplateError, Term, Triple, Variable


class VariableVector:
    """The binding environment for one source record: its fields, with
    the generated variables on top (a generated name overrides a field)."""

    def __init__(self, record: Mapping[str, Any]):
        self._record = record
        self._generated: dict[str, Any] = {}

    def bind(self, name: str, value: Any) -> None:
        self._generated[name] = value

    def as_mapping(self) -> dict[str, Any]:
        merged = dict(self._record)
        merged.update(self._generated)
        return merged


def _coerce_term(value: Any) -> Term:
    if isinstance(value, (IRI, Literal, BlankNode)):
        return value
    if isinstance(value, (str, int, float, bool, np.integer, np.floating, np.bool_)):
        return Literal.of(value)
    raise TemplateError(f"cannot convert {type(value).__name__} to an RDF term")


def _resolve(node: Any, env: Mapping[str, Any], position: str) -> Term:
    if isinstance(node, Variable):
        if node.name not in env:
            raise TemplateError(f"unbound variable ?{node.name} in {position}")
        value = env[node.name]
        if value is None:
            raise TemplateError(f"null value for ?{node.name} in {position}")
        return _coerce_term(value)
    if callable(node) and not isinstance(node, (IRI, Literal)):
        return _coerce_term(node(env))
    return node  # already a concrete term


def instantiate(template: GraphTemplate, record: Mapping[str, Any]) -> list[Triple]:
    """The triples of one record, pattern by pattern."""
    vector = VariableVector(record)
    for name, generate in template.generators:
        vector.bind(name, generate(vector.as_mapping()))
    env = vector.as_mapping()
    triples: list[Triple] = []
    for pattern in template.patterns:
        try:
            s = _resolve(pattern.s, env, "subject")
            p = _resolve(pattern.p, env, "predicate")
            o = _resolve(pattern.o, env, "object")
        except TemplateError:
            if pattern.optional:
                continue
            raise
        if not isinstance(p, IRI):
            raise TemplateError(f"predicate resolved to a non-IRI: {p}")
        if isinstance(s, Literal):
            raise TemplateError(f"subject resolved to a literal: {s}")
        triples.append(Triple(s, p, o))
    return triples
