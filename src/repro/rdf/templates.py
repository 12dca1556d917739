"""Graph templates and variable vectors (Section 4.2.3).

The datAcron RDF generation method converts source records to triples
using two ingredients:

* a **variable vector** — the named fields of one source record,
  *plus* values generated during the conversion itself
  (minted IRIs, parsed WKT, unit conversions) that are not explicitly
  present in the source; and
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

from .terms import IRI, Literal, Term, Triple, Variable

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


class VariableVector:
    """The binding environment for one source record.

    Wraps the source record's fields and lets *generated variables* —
    values computed during generation, such as minted IRIs — be added
    on top without mutating the source record.
    """

    def __init__(self, record: Mapping[str, Any]):
        self._record = record
        self._generated: dict[str, Any] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._generated or name in self._record

    def __getitem__(self, name: str) -> Any:
        if name in self._generated:
            return self._generated[name]
        try:
            return self._record[name]
        except KeyError:
            raise TemplateError(f"unbound variable ?{name}") from None

    def get(self, name: str, default: Any = None) -> Any:
        try:
            return self[name]
        except TemplateError:
            return default

    def bind(self, name: str, value: Any) -> None:
        """Add a generated variable (overrides a source field of the same name)."""
        self._generated[name] = value

    def as_mapping(self) -> dict[str, Any]:
        merged = dict(self._record)
        merged.update(self._generated)
        return merged


def _coerce_term(value: Any) -> Term:
    """Lift a raw bound value into an RDF term."""
    if isinstance(value, (IRI, Literal)):
        return value
    if isinstance(value, (str, int, float, bool)):
        return Literal.of(value)
    raise TemplateError(f"cannot convert {type(value).__name__} to an RDF term")


@dataclass
class GraphTemplate:
    """A reusable set of triple patterns plus generated-variable rules."""

    patterns: Sequence[TriplePattern]
    #: name -> function(bindings) evaluated before instantiation, in order.
    generators: Sequence[tuple[str, Callable[[Mapping[str, Any]], Any]]] = field(default_factory=list)

    def instantiate(self, record: Mapping[str, Any]) -> list[Triple]:
        """Produce the triples of one record."""
        vector = VariableVector(record)
        for name, fn in self.generators:
            vector.bind(name, fn(vector.as_mapping()))
        env = vector.as_mapping()
        triples: list[Triple] = []
        for pattern in self.patterns:
            try:
                s = self._resolve(pattern.s, env, position="subject")
                p = self._resolve(pattern.p, env, position="predicate")
                o = self._resolve(pattern.o, env, position="object")
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

    @staticmethod
    def _resolve(node: TemplateNode, env: Mapping[str, Any], position: str) -> Term:
        if isinstance(node, Variable):
            if node.name not in env:
                raise TemplateError(f"unbound variable ?{node.name} in {position}")
            value = env[node.name]
            if value is None:
                raise TemplateError(f"null value for ?{node.name} in {position}")
            return _coerce_term(value)
        if callable(node) and not isinstance(node, (IRI, Literal)):
            return _coerce_term(node(env))
        return node  # already a concrete Term


def var(name: str) -> Variable:
    """Shorthand for a template/query variable."""
    return Variable(name)


def fn(template: Callable[[Mapping[str, Any]], Any]) -> Callable[[Mapping[str, Any]], Term]:
    """Wrap a plain function so its return value is coerced to a term."""

    def wrapper(env: Mapping[str, Any]) -> Term:
        return _coerce_term(template(env))

    return wrapper
