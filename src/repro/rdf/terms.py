"""RDF terms and triples: the data model of the knowledge graph.

A deliberately small, allocation-light RDF core: IRIs, literals with
optional datatype, blank nodes, and variables (used both by the graph
templates of the RDF generators and by the SPARQL-lite query engine of
the knowledge-graph store).

The ground terms and ``Triple`` are the keys of every graph and store
index: immutable by contract, not ``frozen``, each hashes once, at
construction, to the value a frozen dataclass would recompute per probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np


def _cached_hash(term) -> int:
    return term._hash


def _positional_reduce(term):
    # Constructor arguments only: the hash is computed again on load.
    return type(term), tuple(getattr(term, name) for name in term.__match_args__)


@dataclass(slots=True)
class IRI:
    """An IRI reference."""

    value: str
    _hash: int = field(init=False, repr=False, compare=False)
    __hash__ = _cached_hash
    __reduce__ = _positional_reduce

    def __post_init__(self):
        self._hash = hash((self.value,))

    def __str__(self) -> str:
        return f"<{self.value}>"


#: Common XSD datatypes.
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
XSD_DOUBLE = "http://www.w3.org/2001/XMLSchema#double"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"
XSD_DATETIME = "http://www.w3.org/2001/XMLSchema#dateTime"
WKT_LITERAL = "http://www.opengis.net/ont/geosparql#wktLiteral"


@dataclass(slots=True)
class Literal:
    """An RDF literal with an optional datatype IRI."""

    value: str
    datatype: str = XSD_STRING
    _hash: int = field(init=False, repr=False, compare=False)
    __hash__ = _cached_hash
    __reduce__ = _positional_reduce

    def __post_init__(self):
        self._hash = hash((self.value, self.datatype))

    def __str__(self) -> str:
        if self.datatype == XSD_STRING:
            return f'"{self.value}"'
        return f'"{self.value}"^^<{self.datatype}>'

    @classmethod
    def of(cls, value: Union[str, float, int, bool]) -> "Literal":
        """Build a literal with the natural datatype of a Python value.

        numpy's scalars are typed like Python's. A float gets its shortest
        round-trip form, and NaN/±inf XSD's spellings ``NaN``/``INF``/``-INF``.
        """
        if isinstance(value, (float, np.floating)):
            if math.isfinite(value):
                return cls(repr(float(value)), XSD_DOUBLE)
            return cls("NaN" if math.isnan(value) else ("INF" if value > 0 else "-INF"), XSD_DOUBLE)
        if isinstance(value, (bool, np.bool_)):
            return cls("true" if value else "false", XSD_BOOLEAN)
        if isinstance(value, (int, np.integer)):
            return cls(str(int(value)), XSD_INTEGER)
        return cls(str(value), XSD_STRING)

    @classmethod
    def wkt(cls, text: str) -> "Literal":
        """A GeoSPARQL WKT geometry literal."""
        return cls(text, WKT_LITERAL)


@dataclass(slots=True)
class BlankNode:
    """An RDF blank node."""

    label: str
    _hash: int = field(init=False, repr=False, compare=False)
    __hash__ = _cached_hash
    __reduce__ = _positional_reduce

    def __post_init__(self):
        self._hash = hash((self.label,))

    def __str__(self) -> str:
        return f"_:{self.label}"


@dataclass(frozen=True, slots=True)
class Variable:
    """A query/template variable, written ``?name``."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


#: Anything that can occupy a triple position in data.
Term = Union[IRI, Literal, BlankNode]
#: Anything that can occupy a position in a pattern.
PatternTerm = Union[IRI, Literal, BlankNode, Variable]


@dataclass(slots=True)
class Triple:
    """A ground RDF triple."""

    s: Term
    p: IRI
    o: Term
    _hash: int = field(init=False, repr=False, compare=False)
    __hash__ = _cached_hash
    __reduce__ = _positional_reduce

    def __post_init__(self):
        self._hash = hash((self.s, self.p, self.o))

    def __str__(self) -> str:
        return f"{self.s} {self.p} {self.o} ."


def is_ground(term: PatternTerm) -> bool:
    """Whether the term is concrete (not a variable)."""
    return not isinstance(term, Variable)
