"""Dictionary encoding with embedded spatio-temporal cells (Section 4.2.5).

The store's "custom dictionary encoding technique": every RDF term is
mapped to a unique integer id (the dictionary itself is the REDIS
surrogate — an in-memory key-value map). For *spatio-temporal entities*
(semantic nodes carrying a position and a timestamp), the id embeds the
id of the spatio-temporal grid cell the entity falls in:

    id = (st_cell + 1) << SERIAL_BITS | serial

so that spatio-temporal range constraints can be evaluated **directly on
the encoded id** — no dictionary lookup, no geometry parsing — which is
what makes the pushdown query plans fast. Terms without a position get
st_cell slot 0 (i.e. "no cell").

The serial is the term's first-sight index, unique across all cells. A
term that gains its anchor after it was minted (a node referenced before
its own triples arrive in a later load) is *re-celled*: only its slot
bits change, so its id is the one it would have had, had its anchor been
known at first sight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo import BBox, SpatioTemporalGrid
from ..rdf import Term

#: Bits reserved for the serial (the term's first-sight index).
SERIAL_BITS = 32
_SERIAL_MASK = (1 << SERIAL_BITS) - 1


class DictionaryFullError(RuntimeError):
    """Raised when the dictionary's serial space is exhausted."""


@dataclass(frozen=True, slots=True)
class STPosition:
    """The spatio-temporal anchor of an entity, if it has one."""

    lon: float
    lat: float
    t: float


class Dictionary:
    """Bidirectional term <-> integer-id dictionary with ST-aware ids."""

    def __init__(self, st_grid: SpatioTemporalGrid):
        self.st_grid = st_grid
        self._term_to_id: dict[Term, int] = {}
        self._id_to_term: dict[int, Term] = {}

    def __len__(self) -> int:
        return len(self._term_to_id)

    def encode(self, term: Term, position: STPosition | None = None) -> int:
        """The id of a term, minting one (with its ST cell) on first sight."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        serial = len(self._term_to_id)
        if serial > _SERIAL_MASK:
            raise DictionaryFullError(f"all {_SERIAL_MASK + 1} serials are taken")
        term_id = (self._slot(position) << SERIAL_BITS) | serial
        self._term_to_id[term] = term_id
        self._id_to_term[term_id] = term
        return term_id

    def recell(self, term: Term, position: STPosition) -> tuple[int, int] | None:
        """Move an encoded term into its anchor's cell.

        Returns ``(old_id, new_id)``, or None if the id already embeds that
        cell. The serial is kept, so the new id is unique.
        """
        old = self._term_to_id[term]
        new = (self._slot(position) << SERIAL_BITS) | (old & _SERIAL_MASK)
        if new == old:
            return None
        del self._id_to_term[old]
        self._term_to_id[term] = new
        self._id_to_term[new] = term
        return old, new

    def _slot(self, position: STPosition | None) -> int:
        if position is None:
            return 0
        return self.st_grid.cell_id(position.lon, position.lat, position.t) + 1

    def lookup(self, term: Term) -> int | None:
        """The id of a term if already encoded."""
        return self._term_to_id.get(term)

    def decode(self, term_id: int) -> Term:
        """The term behind an id."""
        try:
            return self._id_to_term[term_id]
        except KeyError:
            raise KeyError(f"unknown term id {term_id}") from None

    def ids_for_range(self, bbox: BBox, t_min: float, t_max: float) -> set[int]:
        """The set of ST *slots* covering a query range (for id filtering)."""
        return {cell + 1 for cell in self.st_grid.ids_for_range(bbox, t_min, t_max)}

    @staticmethod
    def slots_to_array(slots: set[int]) -> np.ndarray:
        """A slot set as a sorted int64 array, for :meth:`ids_match_slots`."""
        return np.sort(np.fromiter(slots, dtype=np.int64, count=len(slots)))

    @staticmethod
    def ids_match_slots(term_ids: np.ndarray, slot_array: np.ndarray) -> np.ndarray:
        """Constraint check evaluated purely on the encoded ids: one boolean each.

        ``slot_array`` must be sorted (see :meth:`slots_to_array`); matching
        is one shift plus one ``np.isin`` over the whole id column.
        """
        return np.isin(term_ids >> SERIAL_BITS, slot_array, assume_unique=False, kind="sort")
