"""Graph templates and variable vectors (Section 4.2.3).

The datAcron RDF generation method converts source records to triples
using two ingredients:

* a **variable vector** — the named fields of one source record,
  *plus* values generated during the conversion itself
  (minted IRIs, parsed WKT, unit conversions) that are not explicitly
  present in the source (here, one binding dict per record); and
* a **graph template** — a set of triple patterns whose subject or
  object may be a variable or a *function with variable arguments*.

The paper's point is that this needs no mapping-vocabulary knowledge
(unlike RML) and no underlying SPARQL engine (unlike SPARQL-Generate /
GeoTriples): anyone who can write simple SPARQL triple patterns can
write a template, and instantiation is embarrassingly parallel and
stream-friendly. That is exactly the shape implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence, Union

import numpy as np

from .terms import IRI, BlankNode, Literal, Term, Triple, Variable

#: A template node: a concrete term, a variable, or a function of the bindings.
TemplateNode = Union[Term, Variable, Callable[[Mapping[str, Any]], Term]]


class TemplateError(ValueError):
    """Raised when a template cannot be instantiated for a record."""


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """One template row: subject / predicate / object template nodes."""

    s: TemplateNode
    p: TemplateNode
    o: TemplateNode
    optional: bool = False   # skip (instead of fail) when a variable is absent


def _coerce_term(value: Any) -> Term:
    """Lift a raw bound value into an RDF term."""
    if isinstance(value, (IRI, Literal, BlankNode)):
        return value
    if isinstance(value, (str, int, float, bool, np.integer, np.floating, np.bool_)):
        return Literal.of(value)
    raise TemplateError(f"cannot convert {type(value).__name__} to an RDF term")


def _compile(node: TemplateNode, position: str) -> Term | Callable[[dict[str, Any]], Term]:
    """A pattern node as ``instantiate`` reads it: a term, or a function of the bindings to one."""
    if isinstance(node, Variable):
        name = node.name

        def variable(env: dict[str, Any]) -> Term:
            if name not in env:
                raise TemplateError(f"unbound variable ?{name} in {position}")
            value = env[name]
            if value is None:
                raise TemplateError(f"null value for ?{name} in {position}")
            return _coerce_term(value)

        return variable
    if callable(node):
        return lambda env: _coerce_term(node(env))
    return node


@dataclass
class GraphTemplate:
    """Triple patterns plus generated-variable rules, compiled once; each
    record is bound into one dict, which the generators extend in place."""

    patterns: Sequence[TriplePattern]
    #: name -> function(bindings) evaluated before instantiation, in order.
    generators: Sequence[tuple[str, Callable[[Mapping[str, Any]], Any]]] = field(default_factory=list)

    def __post_init__(self):
        self._rows = [
            (_compile(p.s, "subject"), _compile(p.p, "predicate"), _compile(p.o, "object"), p.optional)
            for p in self.patterns
        ]

    def instantiate(self, record: Mapping[str, Any]) -> list[Triple]:
        """Produce the triples of one record."""
        env = dict(record)
        for name, generate in self.generators:
            env[name] = generate(env)
        triples: list[Triple] = []
        for s, p, o, optional in self._rows:
            try:
                s = s(env) if callable(s) else s
                p = p(env) if callable(p) else p
                o = o(env) if callable(o) else o
            except TemplateError:
                if optional:
                    continue
                raise
            if not isinstance(p, IRI):
                raise TemplateError(f"predicate resolved to a non-IRI: {p}")
            if isinstance(s, Literal):
                raise TemplateError(f"subject resolved to a literal: {s}")
            triples.append(Triple(s, p, o))
        return triples


def var(name: str) -> Variable:
    """Shorthand for a template/query variable."""
    return Variable(name)
