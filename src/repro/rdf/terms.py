"""RDF terms and triples: the data model of the knowledge graph.

A deliberately small, allocation-light RDF core: IRIs, literals with
optional datatype, blank nodes, and variables (used both by the graph
templates of the RDF generators and by the SPARQL-lite query engine of
the knowledge-graph store).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, slots=True)
class IRI:
    """An IRI reference."""

    value: str

    def __str__(self) -> str:
        return f"<{self.value}>"


#: Common XSD datatypes.
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
XSD_DOUBLE = "http://www.w3.org/2001/XMLSchema#double"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"
XSD_DATETIME = "http://www.w3.org/2001/XMLSchema#dateTime"
WKT_LITERAL = "http://www.opengis.net/ont/geosparql#wktLiteral"


@dataclass(frozen=True, slots=True)
class Literal:
    """An RDF literal with an optional datatype IRI."""

    value: str
    datatype: str = XSD_STRING

    def __str__(self) -> str:
        if self.datatype == XSD_STRING:
            return f'"{self.value}"'
        return f'"{self.value}"^^<{self.datatype}>'

    @classmethod
    def of(cls, value: Union[str, float, int, bool]) -> "Literal":
        """Build a literal with the natural datatype of a Python value.

        A float (numpy's included) gets its shortest round-trip form, and
        NaN/±inf XSD's spellings ``NaN``/``INF``/``-INF``.
        """
        if isinstance(value, bool):
            return cls("true" if value else "false", XSD_BOOLEAN)
        if isinstance(value, int):
            return cls(str(value), XSD_INTEGER)
        if isinstance(value, float):
            if math.isfinite(value):
                return cls(repr(float(value)), XSD_DOUBLE)
            return cls("NaN" if math.isnan(value) else ("INF" if value > 0 else "-INF"), XSD_DOUBLE)
        return cls(str(value), XSD_STRING)

    @classmethod
    def wkt(cls, text: str) -> "Literal":
        """A GeoSPARQL WKT geometry literal."""
        return cls(text, WKT_LITERAL)


@dataclass(frozen=True, slots=True)
class BlankNode:
    """An RDF blank node."""

    label: str

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


@dataclass(frozen=True, slots=True)
class Triple:
    """A ground RDF triple."""

    s: Term
    p: IRI
    o: Term

    def __str__(self) -> str:
        return f"{self.s} {self.p} {self.o} ."


def is_ground(term: PatternTerm) -> bool:
    """Whether the term is concrete (not a variable)."""
    return not isinstance(term, Variable)
