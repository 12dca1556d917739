"""A batch of fixes as columns: the struct-of-arrays layout of one poll.

The Figure-2 hot path screens a poll with numpy kernels and the pooled
layer ships it between processes; both read the layout built once per
poll by :meth:`FixColumns.of`: ``entity_id`` dictionary-encoded (distinct
ids in first-appearance order, an ``int32`` code per fix), the seven
float fields as one ``float64[7, n]`` block (``NaN``, ``-0.0``, ``±inf``
bit-exact) and a ``bool[7, n]`` validity mask — ``False`` where the field
is not a ``float``. That is ``None`` (a missing kinematic field) unless
the cell is listed in ``odd``, which keeps the rare non-float value (an
``int`` timestamp, say) by value. A column kernel may only read valid
cells; a batch with ``odd`` cells belongs on the per-fix path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Any, Sequence

import numpy as np

#: The float64 block's rows, in ``PositionFix`` field order.
FLOAT_FIELDS = ("t", "lon", "lat", "alt", "speed", "heading", "vrate")
T, LON, LAT, ALT, SPEED, HEADING, VRATE = range(len(FLOAT_FIELDS))


def dictionary_encode(values: list) -> tuple[list, np.ndarray]:
    """Distinct values in first-appearance order and an ``int32`` code per value."""
    distinct = list(dict.fromkeys(values))
    code_of = {value: code for code, value in enumerate(distinct)}
    return distinct, np.array(list(map(code_of.__getitem__, values)), dtype=np.int32)


@dataclass(frozen=True)
class FixColumns:
    """``n`` fixes as columns; see the module docstring for the layout."""

    entity_ids: list[str]
    entity_codes: np.ndarray            # int32[n] into entity_ids
    columns: np.ndarray                 # float64[7, n], FLOAT_FIELDS order
    valid: np.ndarray                   # bool[7, n]: the cell holds a float
    odd: list[tuple[int, int, Any]]     # (field, row, value): invalid and not None

    @classmethod
    def of(cls, fixes: Sequence) -> "FixColumns":
        n = len(fixes)
        columns = np.zeros((len(FLOAT_FIELDS), n))
        valid = np.ones((len(FLOAT_FIELDS), n), dtype=bool)
        odd: list[tuple[int, int, Any]] = []
        for j, name in enumerate(FLOAT_FIELDS):
            values = list(map(attrgetter(name), fixes))
            if set(map(type, values)) - {float}:
                for i, value in enumerate(values):
                    if type(value) is not float:
                        valid[j, i] = False
                        values[i] = 0.0
                        if value is not None:
                            odd.append((j, i, value))
            columns[j] = values
        return cls(*dictionary_encode(list(map(attrgetter("entity_id"), fixes))), columns, valid, odd)

    def __len__(self) -> int:
        return len(self.entity_codes)

    def values(self, field: int) -> list:
        """One field's value per fix, exactly as the fixes hold it."""
        out = self.columns[field].tolist()
        for i in np.flatnonzero(~self.valid[field]).tolist():
            out[i] = None
        for j, i, value in self.odd:
            if j == field:
                out[i] = value
        return out

    def keys(self) -> list[str]:
        """The entity id of each fix."""
        return list(map(self.entity_ids.__getitem__, self.entity_codes.tolist()))

    def take(self, rows: np.ndarray) -> "FixColumns":
        """The columns of a subset of the fixes (ascending row numbers)."""
        new_row = {old: new for new, old in enumerate(rows.tolist())} if self.odd else {}
        odd = [(j, new_row[i], value) for j, i, value in self.odd if i in new_row]
        return FixColumns(self.entity_ids, self.entity_codes[rows], self.columns[:, rows], self.valid[:, rows], odd)

    @cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, starts, counts)``: the rows grouped by entity, arrival
        order kept inside a group (a stable argsort of the codes); where
        each entity's run starts in ``order``, and how long it is."""
        order = np.argsort(self.entity_codes, kind="stable")
        codes = self.entity_codes[order]
        is_start = np.ones(len(codes), dtype=bool)
        is_start[1:] = codes[1:] != codes[:-1]
        starts = np.flatnonzero(is_start)
        return order, starts, np.diff(np.append(starts, len(codes)))

    @cached_property
    def predecessors(self) -> np.ndarray:
        """Each row's same-entity predecessor row in the batch, ``-1`` for
        an entity's first."""
        order, starts, _ = self.runs
        prev = np.empty(len(order), dtype=np.intp)
        prev[order[1:]] = order[:-1]
        prev[order[starts]] = -1
        return prev
