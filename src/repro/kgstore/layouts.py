"""Storage layouts and partitions (Section 4.2.5).

The paper's storage layer supports several layouts over the encoded
triples — "one-triples-table", vertical partitioning, and property
tables — stored columnar (Parquet surrogate: parallel integer arrays)
and partitioned across workers (HDFS surrogate: hash partitions by
subject). All three layouts expose the same access paths the query
engine needs: full scans, predicate-restricted scans, and
subject-grouped rows for star joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

#: An encoded triple: integer (s, p, o).
EncodedTriple = tuple[int, int, int]


@dataclass(frozen=True, slots=True)
class TripleColumns:
    """Encoded triples as parallel int64 columns — the columnar exchange format.

    ``KGStore`` keeps its triples in this shape and hands it to layout
    constructors directly, so layouts can bucket/partition with numpy masks
    instead of per-triple Python loops.
    """

    s: np.ndarray
    p: np.ndarray
    o: np.ndarray

    def __len__(self) -> int:
        return len(self.s)

    @staticmethod
    def from_triples(triples: Iterable[EncodedTriple]) -> "TripleColumns":
        rows = triples if isinstance(triples, list) else list(triples)
        if rows:
            arr = np.asarray(rows, dtype=np.int64)
            return TripleColumns(arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy())
        empty = np.empty(0, dtype=np.int64)
        return TripleColumns(empty, empty.copy(), empty.copy())


def _as_columns(triples: "Iterable[EncodedTriple] | TripleColumns") -> TripleColumns:
    if isinstance(triples, TripleColumns):
        return triples
    return TripleColumns.from_triples(triples)


@dataclass(frozen=True, slots=True)
class Partition:
    """One columnar chunk of encoded triples."""

    s: np.ndarray
    p: np.ndarray
    o: np.ndarray

    def __len__(self) -> int:
        return len(self.s)


#: Subject-hash buckets of the partitioned layouts (the parallel unit).
N_PARTITIONS = 4


def _to_partition(triples: list[EncodedTriple]) -> Partition:
    if triples:
        arr = np.asarray(triples, dtype=np.int64)
        return Partition(arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy())
    empty = np.empty(0, dtype=np.int64)
    return Partition(empty, empty, empty)


def _grown(part: Partition, s: np.ndarray, p: np.ndarray, o: np.ndarray) -> Partition:
    """``part`` with the rows (s, p, o) appended."""
    return Partition(np.concatenate([part.s, s]), np.concatenate([part.p, p]), np.concatenate([part.o, o]))


class TriplesTable:
    """The "one-triples-table" layout: all triples in hash partitions by subject."""

    name = "triples_table"

    def __init__(self, triples: "Iterable[EncodedTriple] | TripleColumns"):
        self.partitions = [_to_partition([])] * N_PARTITIONS
        self.extend(_as_columns(triples))

    def extend(self, cols: TripleColumns) -> None:
        """Append a batch: each bucket grows by its rows, in batch order."""
        bucket_of = cols.s % len(self.partitions)
        self.partitions = [
            _grown(part, cols.s[m], cols.p[m], cols.o[m])
            for k, part in enumerate(self.partitions)
            for m in (bucket_of == k,)
        ]

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions)

    def scan_predicate(self, p_id: int) -> Iterator[Partition]:
        """Scan restricted to a predicate (filter applied per partition)."""
        for part in self.partitions:
            mask = part.p == p_id
            if mask.any():
                yield Partition(part.s[mask], part.p[mask], part.o[mask])


class VerticalPartitioning:
    """One two-column table per predicate: the classic VP layout."""

    name = "vertical_partitioning"

    def __init__(self, triples: "Iterable[EncodedTriple] | TripleColumns"):
        # Per predicate, one bucket per partition (empty ones included, so a
        # later batch lands in its bucket); scans skip the empty buckets.
        self._tables: dict[int, list[Partition]] = {}
        self._size = 0
        self.extend(_as_columns(triples))

    def extend(self, cols: TripleColumns) -> None:
        """Append a batch: each (predicate, bucket) table grows by its rows.

        Predicate tables keep first-occurrence order across batches, buckets
        keep input row order.
        """
        self._size += len(cols)
        if not len(cols):
            return
        uniq, first_idx = np.unique(cols.p, return_index=True)
        for p_id in uniq[np.argsort(first_idx)].tolist():
            p_mask = cols.p == p_id
            s, p, o = cols.s[p_mask], cols.p[p_mask], cols.o[p_mask]
            bucket_of = s % N_PARTITIONS
            parts = self._tables.get(p_id) or [_to_partition([])] * N_PARTITIONS
            self._tables[p_id] = [
                _grown(part, s[m], p[m], o[m]) if m.any() else part
                for k, part in enumerate(parts)
                for m in (bucket_of == k,)
            ]

    def __len__(self) -> int:
        return self._size

    def scan_predicate(self, p_id: int) -> Iterator[Partition]:
        """Direct per-predicate access: VP's whole point."""
        return (part for part in self._tables.get(p_id, []) if len(part))


class PropertyTable:
    """Subject-grouped rows: one (sparse) row of properties per subject.

    The natural layout for the star-join queries of the experiment: a
    star over predicates p1..pk is a row-local operation, no join at all.
    Multi-valued properties keep their last value in the row and spill
    the rest to an overflow triples list (scanned only when the engine
    asks for exhaustive semantics).
    """

    name = "property_table"

    def __init__(self, triples: "Iterable[EncodedTriple] | TripleColumns"):
        self._rows: dict[int, dict[int, int]] = {}
        self._overflow: list[EncodedTriple] = []
        self._size = 0
        # Columnar star-scan view, built lazily: subjects in row-insertion
        # order plus one dense (present, object) column pair per predicate.
        self._subjects_arr: np.ndarray | None = None
        self._columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.extend(_as_columns(triples))

    def extend(self, cols: TripleColumns) -> None:
        """Append a batch: new subjects get rows, known ones gain properties
        (a repeated property spills its old value to the overflow)."""
        rows, overflow = self._rows, self._overflow
        for s, p, o in zip(cols.s.tolist(), cols.p.tolist(), cols.o.tolist()):
            row = rows.get(s)
            if row is None:
                rows[s] = {p: o}
                continue
            old = row.get(p)
            if old is not None:
                overflow.append((s, p, old))
            row[p] = o
        self._size += len(cols)
        self._subjects_arr = None
        self._columns = {}

    def __len__(self) -> int:
        return self._size

    def subjects(self) -> Iterator[int]:
        return iter(self._rows)

    def row(self, s_id: int) -> dict[int, int] | None:
        return self._rows.get(s_id)

    def _column(self, p_id: int) -> tuple[np.ndarray, np.ndarray]:
        """The dense (present-mask, object) column of one predicate (cached)."""
        cached = self._columns.get(p_id)
        if cached is not None:
            return cached
        n = len(self._rows)
        present = np.zeros(n, dtype=bool)
        col = np.zeros(n, dtype=np.int64)
        for i, row in enumerate(self._rows.values()):
            o = row.get(p_id)
            if o is not None:
                present[i] = True
                col[i] = o
        self._columns[p_id] = (present, col)
        return present, col

    def star_scan_arrays(self, predicate_ids: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """All rows having every predicate, as (subjects, objects-matrix) arrays.

        Subjects come back in row-insertion order, with one object column
        per requested predicate (shape ``(n_subjects, n_predicates)``).
        """
        if self._subjects_arr is None:
            self._subjects_arr = np.fromiter(self._rows.keys(), dtype=np.int64, count=len(self._rows))
        columns = [self._column(p_id) for p_id in predicate_ids]
        mask: np.ndarray | None = None
        for present, _ in columns:
            mask = present if mask is None else (mask & present)
        if mask is None:  # no predicates requested
            mask = np.ones(len(self._subjects_arr), dtype=bool)
        subjects = self._subjects_arr[mask]
        if columns:
            objs = np.stack([col[mask] for _, col in columns], axis=1)
        else:
            objs = np.empty((len(subjects), 0), dtype=np.int64)
        return subjects, objs

    def scan_predicate(self, p_id: int) -> Iterator[Partition]:
        rows = [(s, p_id, props[p_id]) for s, props in self._rows.items() if p_id in props]
        rows.extend(t for t in self._overflow if t[1] == p_id)
        if rows:
            yield _to_partition(rows)


#: Layout registry by name.
LAYOUTS = {
    TriplesTable.name: TriplesTable,
    VerticalPartitioning.name: VerticalPartitioning,
    PropertyTable.name: PropertyTable,
}
