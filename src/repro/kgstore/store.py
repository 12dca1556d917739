"""The knowledge-graph store: loading, planning and star-join execution.

Reproduces the E5 experiment (Section 4.2.5): the same star query with a
spatio-temporal constraint is executed through two physical plans —

* **post-filter** (the baseline a generic distributed RDF engine would
  use): evaluate the full star join, then enforce the spatio-temporal
  constraint on the materialized results, at the cost of computing a
  much larger candidate set; and
* **pushdown** (the paper's technique): prune candidate subjects by the
  spatio-temporal cell embedded in their *encoded integer ids* before
  any join work, refining exactly only the survivors.

The paper reports ~5x improvement for star joins with spatio-temporal
constraints; the bench measures the same ratio on this engine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..geo import BBox, EquiGrid, SpatioTemporalGrid, parse_point
from ..rdf import Literal, Term, Triple, Variable, VOC

from .encoding import Dictionary, STPosition
from .layouts import LAYOUTS, PropertyTable, TripleColumns
from .sparql import STConstraint, StarQuery


@dataclass
class QueryMetrics:
    """What one query execution cost."""

    join_rows: int = 0          # rows entering the join pipeline
    candidates: int = 0         # candidate subjects after (any) pruning
    refined: int = 0            # subjects checked against the exact constraint
    results: int = 0
    wall_seconds: float = 0.0


@dataclass
class LoadReport:
    """What one :meth:`KGStore.load` call produced (batch-scoped counts).

    Every count is per batch. Store-wide totals live on the store itself
    (``len(store)``, ``store.anchored_subjects`` and the
    ``kg.triples_stored`` / ``kg.anchored_subjects`` gauges), not here.
    """

    triples: int = 0            # triples in the batch just loaded
    subjects: int = 0           # distinct subjects in the batch just loaded
    anchored_subjects: int = 0  # subjects whose anchor this batch completed or restated


class KGStore:
    """A partitioned, dictionary-encoded spatio-temporal triple store.

    With a ``registry`` attached (an ``repro.obs.MetricsRegistry``),
    loads and queries report under the ``kg.*`` namespace: load/query
    latency histograms plus counters for triples loaded, join rows
    scanned, candidate subjects, exact refinements and results — the
    numbers behind the paper's ~5x pushdown claim, observable live.
    """

    def __init__(
        self,
        bbox: BBox,
        t_origin: float,
        t_extent_s: float,
        layout: str = "property_table",
        grid_cols: int = 64,
        grid_rows: int = 64,
        t_slots: int = 64,
        registry=None,
    ):
        if layout not in LAYOUTS:
            raise ValueError(f"unknown layout {layout!r}; pick one of {sorted(LAYOUTS)}")
        if t_extent_s <= 0:
            raise ValueError("t_extent_s must be positive")
        grid = EquiGrid(bbox, grid_cols, grid_rows)
        st_grid = SpatioTemporalGrid(grid, t_origin, t_extent_s / t_slots, t_slots)
        self.dictionary = Dictionary(st_grid)
        self.layout_name = layout
        self.registry = registry
        self._layout = None
        self._positions: dict[int, STPosition] = {}   # subject id -> exact anchor
        # Subjects with one half of their anchor so far: (lon, lat) or t,
        # held until a later load brings the other half.
        self._half_anchors: dict[Term, tuple[tuple[float, float] | None, float | None]] = {}
        #: The store's triples: rows (s, p, o) of a buffer that grows with
        #: amortised doubling; the first ``_n`` columns are live.
        self._buf = np.empty((3, 0), dtype=np.int64)
        self._n = 0
        # Anchors as parallel (id, lon, lat, t) arrays sorted by id, built
        # lazily for the refine step; invalidated on load.
        self._anchor_arrays_cache: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- loading ---------------------------------------------------------------

    def load(self, triples: Iterable[Triple]) -> LoadReport:
        """Encode, anchor and append a triple batch to the store.

        Loads are additive: the work is O(batch), and loading one triple
        list in any number of consecutive batches leaves the store as one
        load of the whole list would, down to the ids, the layout and the
        order of every query's bindings. A subject's anchor (its ``asWKT``
        point plus its ``timestamp``) may arrive across batches; a term
        minted before its anchor was complete is moved into its cell then.
        """
        start = time.perf_counter()
        batch = list(triples)
        anchors = self._anchors_of(batch)
        # A re-cell rewrites stored ids: the layout is rebuilt, batch included.
        rebuild = self._recell(anchors) or self._layout is None

        # Encode into columnar batch buffers. An id is minted at a term's
        # first sight, so an anchored node met first as an *object*
        # (``traj hasSemanticNode node`` ahead of the node's own triples)
        # gets its spatio-temporal id there too, or pushdown prunes it.
        encode, anchor_of = self.dictionary.encode, anchors.get
        s_ids: list[int] = []
        p_ids: list[int] = []
        o_ids: list[int] = []
        for tr in batch:
            s_ids.append(encode(tr.s, anchor_of(tr.s)))
            p_ids.append(encode(tr.p, anchor_of(tr.p)))
            o_ids.append(encode(tr.o, anchor_of(tr.o)))
        lookup = self.dictionary.lookup
        for subject, anchor in anchors.items():
            self._positions[lookup(subject)] = anchor
        batch_cols = TripleColumns(
            np.asarray(s_ids, dtype=np.int64),
            np.asarray(p_ids, dtype=np.int64),
            np.asarray(o_ids, dtype=np.int64),
        )
        self._append(batch_cols)
        self._anchor_arrays_cache = None
        if rebuild:
            live = TripleColumns(*self._buf[:, : self._n])
            self._layout = LAYOUTS[self.layout_name](live)
        else:
            self._layout.extend(batch_cols)
        report = LoadReport(len(batch), len(set(s_ids)), len(anchors))
        if self.registry is not None:
            self.registry.counter("kg.triples_loaded").inc(len(batch))
            self.registry.counter("kg.loads").inc()
            self.registry.histogram("kg.load_latency_s").observe(time.perf_counter() - start)
            self.registry.gauge("kg.triples_stored").set(len(self))
            self.registry.gauge("kg.anchored_subjects").set(self.anchored_subjects)
        return report

    def _anchors_of(self, batch: list[Triple]) -> dict[Term, STPosition]:
        """The subjects whose anchor is complete once this batch is in.

        Within the batch the last usable half wins; a half the batch lacks
        comes from the subject's held anchor or half-anchor. A half that
        does not parse — a non-numeric or non-finite ``timestamp``, an
        ``asWKT`` POINT that fails to parse or has a non-finite coordinate —
        simply fails to anchor its subject; the triple itself is still stored.
        """
        halves: dict[Term, list] = {}
        for tr in batch:
            if not isinstance(tr.o, Literal):
                continue
            if tr.p == VOC.asWKT and tr.o.value.lstrip().upper().startswith("POINT"):
                try:
                    point = parse_point(tr.o.value)
                except ValueError:
                    continue
                if math.isfinite(point.lon) and math.isfinite(point.lat):
                    halves.setdefault(tr.s, [None, None])[0] = (point.lon, point.lat)
            elif tr.p == VOC.timestamp:
                try:
                    t = float(tr.o.value)
                except ValueError:
                    continue
                if math.isfinite(t):
                    halves.setdefault(tr.s, [None, None])[1] = t
        anchors: dict[Term, STPosition] = {}
        lookup = self.dictionary.lookup
        for subject, (lonlat, t) in halves.items():
            s_id = lookup(subject)
            held = self._positions.get(s_id) if s_id is not None else None
            if held is not None:
                held_lonlat, held_t = (held.lon, held.lat), held.t
            else:
                held_lonlat, held_t = self._half_anchors.pop(subject, (None, None))
            lonlat = lonlat or held_lonlat
            t = held_t if t is None else t
            if lonlat is None or t is None:
                self._half_anchors[subject] = (lonlat, t)
            else:
                anchors[subject] = STPosition(lonlat[0], lonlat[1], t)
        return anchors

    def _recell(self, anchors: dict[Term, STPosition]) -> bool:
        """Move already-encoded terms whose anchor cell changed; True if any moved.

        Rare: it takes a term met before its anchor was complete (or an
        anchor that changed cell). The stored columns are rewritten old id
        -> new id and the held positions follow their subject.
        """
        moves = []
        lookup = self.dictionary.lookup
        for term, anchor in anchors.items():
            if lookup(term) is not None:
                moved = self.dictionary.recell(term, anchor)
                if moved is not None:
                    moves.append(moved)
        if not moves:
            return False
        old, new = (np.asarray(side, dtype=np.int64) for side in zip(*moves))
        order = np.argsort(old)
        old, new = old[order], new[order]
        live = self._buf[:, : self._n]
        pos = np.searchsorted(old, live).clip(max=len(old) - 1)
        live[...] = np.where(old[pos] == live, new[pos], live)
        for o_id, n_id in zip(old.tolist(), new.tolist()):
            if o_id in self._positions:
                self._positions[n_id] = self._positions.pop(o_id)
        return True

    def _append(self, cols: TripleColumns) -> None:
        """Append encoded rows to the buffer, doubling its capacity when full."""
        n, end = self._n, self._n + len(cols)
        if end > self._buf.shape[1]:
            grown = np.empty((3, max(end, 2 * self._buf.shape[1], 1024)), dtype=np.int64)
            grown[:, :n] = self._buf[:, :n]
            self._buf = grown
        self._buf[0, n:end] = cols.s
        self._buf[1, n:end] = cols.p
        self._buf[2, n:end] = cols.o
        self._n = end

    def __len__(self) -> int:
        return self._n

    @property
    def anchored_subjects(self) -> int:
        """How many subjects in the store have a spatio-temporal anchor."""
        return len(self._positions)

    # -- query execution ---------------------------------------------------------

    def execute(self, query: StarQuery, pushdown: bool = True) -> tuple[list[dict[str, Term]], QueryMetrics]:
        """Run a star query; returns (bindings, metrics).

        ``pushdown=False`` forces the baseline post-filter plan; both
        plans return the same bindings in the same order.
        """
        if self._layout is None:
            raise RuntimeError("store is empty; call load() first")
        metrics = QueryMetrics()
        start = time.perf_counter()
        subjects, objects = self._star_rows(query, metrics, pushdown)
        bindings = self._refine_and_project(query, subjects, objects, metrics)
        metrics.wall_seconds = time.perf_counter() - start
        metrics.results = len(bindings)
        if self.registry is not None:
            plan = "pushdown" if pushdown else "postfilter"
            self.registry.counter("kg.queries").inc()
            self.registry.counter(f"kg.queries.{plan}").inc()
            self.registry.counter("kg.join_rows_scanned").inc(metrics.join_rows)
            self.registry.counter("kg.candidates").inc(metrics.candidates)
            self.registry.counter("kg.subjects_refined").inc(metrics.refined)
            self.registry.counter("kg.results").inc(metrics.results)
            self.registry.histogram(f"kg.query_latency_s.{plan}").observe(metrics.wall_seconds)
            self.registry.histogram("kg.query_latency_s").observe(metrics.wall_seconds)
        return bindings, metrics

    def _resolve_arms(self, query: StarQuery) -> list[tuple[int, int | None]] | None:
        """Encode the query's arms: (predicate id, fixed object id or None)."""
        arms: list[tuple[int, int | None]] = []
        for predicate, obj in query.arms:
            p_id = self.dictionary.lookup(predicate)
            if p_id is None:
                return None
            if isinstance(obj, Variable):
                arms.append((p_id, None))
            else:
                o_id = self.dictionary.lookup(obj)
                if o_id is None:
                    return None
                arms.append((p_id, o_id))
        return arms

    def _slots_for(self, st: STConstraint) -> set[int]:
        return self.dictionary.ids_for_range(st.bbox, st.t_min, st.t_max)

    def _star_rows(
        self, query: StarQuery, metrics: QueryMetrics, pushdown: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate star rows as (subjects, objects-matrix) arrays.

        Slot pruning is one shift + ``np.isin`` over the whole subject
        column; fixed-object arms are equality masks.
        """
        no_rows = (np.empty(0, dtype=np.int64), np.empty((0, len(query.arms)), dtype=np.int64))
        arms = self._resolve_arms(query)
        if arms is None:
            return no_rows
        slot_array = None
        if pushdown and query.st is not None:
            slot_array = Dictionary.slots_to_array(self._slots_for(query.st))

        if isinstance(self._layout, PropertyTable):
            subjects, objects = self._layout.star_scan_arrays([p for p, _ in arms])
            metrics.join_rows += len(subjects)
            keep = np.ones(len(subjects), dtype=bool)
            if slot_array is not None:
                keep &= Dictionary.ids_match_slots(subjects, slot_array)
            for i, (_, fixed) in enumerate(arms):
                if fixed is not None:
                    keep &= objects[:, i] == fixed
            subjects, objects = subjects[keep], objects[keep]
            metrics.candidates = len(subjects)
            return subjects, objects

        # TriplesTable / VerticalPartitioning: cascade of hash semi-joins,
        # with the per-partition slot/fixed filters as column masks so only
        # the survivors enter the Python-dict join.
        rows: dict[int, list[int]] = {}
        first = True
        for p_id, fixed in arms:
            arm_hits: dict[int, int] = {}
            for part in self._layout.scan_predicate(p_id):
                metrics.join_rows += len(part)
                s_col, o_col = part.s, part.o
                if slot_array is not None:
                    mask = Dictionary.ids_match_slots(s_col, slot_array)
                    s_col, o_col = s_col[mask], o_col[mask]
                if fixed is not None:
                    mask = o_col == fixed
                    s_col, o_col = s_col[mask], o_col[mask]
                arm_hits.update(zip(s_col.tolist(), o_col.tolist()))
            if first:
                rows = {s: [o] for s, o in arm_hits.items()}
                first = False
            else:
                rows = {s: objs + [arm_hits[s]] for s, objs in rows.items() if s in arm_hits}
            if not rows:
                break
        metrics.candidates = len(rows)
        if not rows:
            return no_rows
        subjects = np.fromiter(rows.keys(), dtype=np.int64, count=len(rows))
        objects = np.asarray(list(rows.values()), dtype=np.int64)
        return subjects, objects

    def _anchor_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Subject anchors as parallel (id, lon, lat, t) arrays sorted by id."""
        cached = self._anchor_arrays_cache
        if cached is None:
            n = len(self._positions)
            ids = np.fromiter(self._positions.keys(), dtype=np.int64, count=n)
            lons = np.fromiter((a.lon for a in self._positions.values()), dtype=np.float64, count=n)
            lats = np.fromiter((a.lat for a in self._positions.values()), dtype=np.float64, count=n)
            ts = np.fromiter((a.t for a in self._positions.values()), dtype=np.float64, count=n)
            order = np.argsort(ids)
            cached = (ids[order], lons[order], lats[order], ts[order])
            self._anchor_arrays_cache = cached
        return cached

    def _refine_and_project(
        self,
        query: StarQuery,
        subjects: np.ndarray,
        objects: np.ndarray,
        metrics: QueryMetrics,
    ) -> list[dict[str, Term]]:
        """Exact constraint check (one bbox/time mask over the survivors'
        anchor arrays), then decode the surviving rows into bindings."""
        st = query.st
        if st is not None and len(subjects):
            metrics.refined += len(subjects)
            ids, lons, lats, ts = self._anchor_arrays()
            if len(ids):
                pos = np.searchsorted(ids, subjects).clip(max=len(ids) - 1)
                keep = ids[pos] == subjects
                lon, lat, t = lons[pos], lats[pos], ts[pos]
                bbox = st.bbox
                keep &= (t >= st.t_min) & (t <= st.t_max)
                keep &= (lon >= bbox.min_lon) & (lon <= bbox.max_lon)
                keep &= (lat >= bbox.min_lat) & (lat <= bbox.max_lat)
            else:
                keep = np.zeros(len(subjects), dtype=bool)
            subjects, objects = subjects[keep], objects[keep]
        elif st is not None:
            metrics.refined += len(subjects)
        bindings: list[dict[str, Term]] = []
        decode = self.dictionary.decode
        subject_name = query.subject.name
        arm_objs = query.arms
        for s_id, objs in zip(subjects.tolist(), objects.tolist()):
            binding: dict[str, Term] = {subject_name: decode(s_id)}
            ok = True
            for (_, obj), o_id in zip(arm_objs, objs):
                if isinstance(obj, Variable):
                    existing = binding.get(obj.name)
                    decoded = decode(o_id)
                    if existing is not None and existing != decoded:
                        ok = False
                        break
                    binding[obj.name] = decoded
            if ok:
                bindings.append(binding)
        return bindings

    # -- convenience --------------------------------------------------------------

    def compare_plans(self, query: StarQuery, repeat: int = 3) -> dict[str, float]:
        """Median wall time of both plans plus the speedup ratio."""
        def median_time(pushdown: bool) -> float:
            times = []
            for _ in range(repeat):
                _, metrics = self.execute(query, pushdown=pushdown)
                times.append(metrics.wall_seconds)
            times.sort()
            mid = len(times) // 2
            if len(times) % 2:
                return times[mid]
            # True median: even repeat counts average the two middle runs.
            return (times[mid - 1] + times[mid]) / 2.0

        baseline = median_time(False)
        pushed = median_time(True)
        return {
            "baseline_s": baseline,
            "pushdown_s": pushed,
            "speedup": baseline / pushed if pushed > 0 else float("inf"),
        }
