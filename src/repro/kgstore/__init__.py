"""Knowledge-graph store (S8): dictionary-encoded spatio-temporal RDF storage."""

from .encoding import Dictionary, DictionaryFullError, SERIAL_BITS, STPosition
from .layouts import LAYOUTS, Partition, PropertyTable, TriplesTable, VerticalPartitioning
from .sparql import STConstraint, StarQuery, star
from .store import KGStore, LoadReport, QueryMetrics

__all__ = [
    "Dictionary",
    "DictionaryFullError",
    "KGStore",
    "LAYOUTS",
    "LoadReport",
    "Partition",
    "PropertyTable",
    "QueryMetrics",
    "SERIAL_BITS",
    "STConstraint",
    "STPosition",
    "StarQuery",
    "TriplesTable",
    "VerticalPartitioning",
    "star",
]
