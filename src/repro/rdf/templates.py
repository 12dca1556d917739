"""Graph templates and variable vectors (Section 4.2.3).

The datAcron RDF generation method converts source records to triples
using two ingredients:

* a **variable vector** — the named fields of one source record,
  *plus* values generated during the conversion itself
  (minted IRIs, parsed WKT, unit conversions) that are not explicitly
  present in the source (here, one column per name over a batch); and
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
from functools import cache
from itertools import chain, compress, count, repeat, starmap
from math import isfinite
from operator import is_
from typing import Any, Callable, Mapping, Sequence, Union

import numpy as np

from .terms import IRI, XSD_DOUBLE, BlankNode, Literal, Term, Triple, Variable

#: A template node: a concrete term, a variable, or a function of the bindings.
TemplateNode = Union[Term, Variable, Callable[[Mapping[str, Any]], Term]]

_TERMS = (IRI, Literal, BlankNode)
_LITERALS = (str, int, float, bool, np.integer, np.floating, np.bool_)
_UNBOUND = object()


class TemplateError(ValueError):
    """Raised when a template cannot be instantiated for a record."""


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """One template row: subject / predicate / object template nodes."""

    s: TemplateNode
    p: TemplateNode
    o: TemplateNode
    optional: bool = False   # skip (instead of fail) when a variable is absent


def _term(value: Any) -> Term | None:
    """A bound value as an RDF term (a finite ``float`` straight to its ``xsd:double``), or ``None``."""
    if type(value) is float and isfinite(value):
        return Literal(repr(value), XSD_DOUBLE)
    if type(value) is str:
        return Literal(value)
    if isinstance(value, _TERMS):
        return value
    return Literal.of(value) if isinstance(value, _LITERALS) else None


def _lift(values: list) -> tuple[list, list, list[int]]:
    """A column's values, their terms, and the records whose value is no term."""
    terms = list(map(_term, values))
    return values, terms, list(compress(count(), map(is_, terms, repeat(None))))


def _failure(value: Any, variable: str | None, position: str) -> TemplateError:
    """Why a variable's (``None``: a callable node's) value is no term."""
    if variable is None and isinstance(value, TemplateError):
        return value   # the callable raised it
    if variable is not None and (value is _UNBOUND or value is None):
        why = "unbound variable" if value is _UNBOUND else "null value for"
        return TemplateError(f"{why} ?{variable} in {position}")
    return TemplateError(f"cannot convert {type(value).__name__} to an RDF term")


def _call(node: Callable[[Mapping[str, Any]], Any], env: Mapping[str, Any]) -> Any:
    try:
        return node(env)
    except TemplateError as error:   # the record fails this row
        return error


@dataclass
class GraphTemplate:
    """Triple patterns plus generators, run in order: ``(name, fields, fn)``
    binds ``fn(*values of the fields)`` and ``(name, fn)`` binds
    ``fn(bindings)``; a generated name overrides a field. A batch is lifted a
    column per name, and a generator whose inputs are strings runs once per
    distinct input of the call."""

    patterns: Sequence[TriplePattern]
    generators: Sequence[tuple] = field(default_factory=list)

    def instantiate(self, record: Mapping[str, Any]) -> list[Triple]:
        """Produce the triples of one record."""
        return self.instantiate_all([record])

    def instantiate_all(self, records: Sequence[Mapping[str, Any]]) -> list[Triple]:
        """Each record's triples, in record order; a failing batch raises
        what its first failing record raises alone."""
        try:
            return self._emit(records)
        except Exception:  # columns fail in column order: one record at a time finds the first
            if len(records) < 2:
                raise
        return [t for record in records for t in self._emit([record])]

    def _emit(self, records: Sequence[Mapping[str, Any]]) -> list[Triple]:
        bound: dict[str, list] = {}   # generated name -> its value in each record
        once: set[str] = set()        # the generated names computed once per distinct input

        def envs() -> list[dict[str, Any]]:   # each record's bindings, for a function of them
            return [{**r, **{k: v[i] for k, v in bound.items()}} for i, r in enumerate(records)]

        for name, *fields, fn in self.generators:
            if fields:
                inputs = list(zip(*(bound[f] if f in bound else [r[f] for r in records] for f in fields[0])))
            else:
                inputs = [(env,) for env in envs()]
            # Equal strings are one input (0.0 == -0.0 and 1 == True are not).
            repeats = all(type(v) is str for key in inputs for v in key)
            bound[name] = list(starmap(cache(fn) if repeats else fn, inputs or [()] * len(records)))
            (once.add if repeats else once.discard)(name)
        columns: dict[str, tuple[list, list, list[int]]] = {}   # variable -> _lift of its values
        rows = []
        for pattern in self.patterns:
            nodes, skipped, parts = (pattern.s, pattern.p, pattern.o), set(), []
            for node, position in zip(nodes, ("subject", "predicate", "object")):
                name = node.name if isinstance(node, Variable) else None
                if name is not None and name not in columns:
                    columns[name] = _lift(bound.get(name) or [r.get(name, _UNBOUND) for r in records])
                if name is not None:
                    values, terms, failed = columns[name]
                elif callable(node):   # called only where the row has not failed yet
                    calls = [None if i in skipped else _call(node, env) for i, env in enumerate(envs())]
                    values, terms, failed = _lift(calls)
                else:
                    values, terms, failed = (), [node] * len(records), ()
                if failed and not pattern.optional:
                    raise _failure(values[failed[0]], name, position)
                skipped.update(failed)
                parts.append(terms)
            if skipped:   # a record that fails an optional row gets no triple from it, and no check
                parts = [[None if i in skipped else term for i, term in enumerate(part)] for part in parts]
            for p in filter(None, parts[1] if not isinstance(pattern.p, IRI) else ()):
                if not isinstance(p, IRI):
                    raise TemplateError(f"predicate resolved to a non-IRI: {p}")
            subjects = parts[0] if not isinstance(pattern.s, (IRI, BlankNode)) else ()
            literal = next(compress(subjects, map(isinstance, subjects, repeat(Literal))), None)
            if literal is not None:
                raise TemplateError(f"subject resolved to a literal: {literal}")
            # A row of constants and once-per-input values is one triple per input.
            shared = all(isinstance(n, _TERMS) or isinstance(n, Variable) and n.name in once for n in nodes)
            triple = cache(Triple) if shared else Triple
            if skipped:
                rows.append([None if s is None else triple(s, p, o) for s, p, o in zip(*parts)])
            else:
                rows.append(list(map(triple, *parts)))
        return list(filter(None, chain.from_iterable(zip(*rows))))


def var(name: str) -> Variable:
    """Shorthand for a template/query variable."""
    return Variable(name)
