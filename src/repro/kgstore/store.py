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

    Store-wide totals live on the store itself (``len(store)`` and the
    ``kg.triples_stored`` / ``kg.anchored_subjects`` gauges), not here.
    """

    triples: int = 0            # triples in the batch just loaded
    subjects: int = 0           # distinct subjects in the batch just loaded
    anchored_subjects: int = 0  # batch subjects with a spatio-temporal position


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
        n_partitions: int = 4,
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
        self.n_partitions = n_partitions
        self.registry = registry
        self._layout = None
        self._positions: dict[int, STPosition] = {}   # subject id -> exact anchor
        #: The store's triples as growing numpy columns (the columnar truth).
        self._cols = TripleColumns.empty()
        # Anchors as parallel (id, lon, lat, t) arrays sorted by id, built
        # lazily for the refine step; invalidated on load.
        self._anchor_arrays_cache: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- loading ---------------------------------------------------------------

    def load(self, triples: Iterable[Triple]) -> LoadReport:
        """Encode and store a triple batch (rebuilds the layout)."""
        start = time.perf_counter()
        batch = list(triples)
        # Pass 1: find each subject's spatio-temporal anchor (asWKT + timestamp).
        wkt_by_subject: dict[Term, str] = {}
        t_by_subject: dict[Term, float] = {}
        for tr in batch:
            if tr.p == VOC.asWKT and isinstance(tr.o, Literal) and tr.o.value.lstrip().upper().startswith("POINT"):
                wkt_by_subject[tr.s] = tr.o.value
            elif tr.p == VOC.timestamp and isinstance(tr.o, Literal):
                try:
                    t_by_subject[tr.s] = float(tr.o.value)
                except ValueError:
                    # A non-numeric timestamp literal simply fails to anchor
                    # this subject; the triple itself is still stored below.
                    pass
        anchors: dict[Term, STPosition] = {}
        for subject, wkt in wkt_by_subject.items():
            t = t_by_subject.get(subject)
            if t is None:
                continue
            point = parse_point(wkt)
            anchors[subject] = STPosition(point.lon, point.lat, t)

        # Pass 2: encode into columnar batch buffers. An id is minted at a
        # term's first sight, so an anchored node met first as an *object*
        # (``traj hasSemanticNode node`` ahead of the node's own triples)
        # must get its spatio-temporal id there too, or pushdown prunes it.
        report = LoadReport()
        seen_subjects: set[int] = set()
        anchored_subjects: set[int] = set()
        s_ids: list[int] = []
        p_ids: list[int] = []
        o_ids: list[int] = []
        for tr in batch:
            anchor = anchors.get(tr.s)
            s_id = self.dictionary.encode(tr.s, anchor)
            s_ids.append(s_id)
            p_ids.append(self.dictionary.encode(tr.p))
            o_ids.append(self.dictionary.encode(tr.o, anchors.get(tr.o)))
            seen_subjects.add(s_id)
            if anchor is not None:
                anchored_subjects.add(s_id)
                self._positions[s_id] = anchor
        report.triples = len(batch)
        report.subjects = len(seen_subjects)
        report.anchored_subjects = len(anchored_subjects)
        batch_cols = TripleColumns(
            np.asarray(s_ids, dtype=np.int64),
            np.asarray(p_ids, dtype=np.int64),
            np.asarray(o_ids, dtype=np.int64),
        )
        self._cols = self._cols.concat(batch_cols)
        self._anchor_arrays_cache = None
        self._layout = LAYOUTS[self.layout_name](self._cols, n_partitions=self.n_partitions)
        if self.registry is not None:
            self.registry.counter("kg.triples_loaded").inc(len(batch))
            self.registry.counter("kg.loads").inc()
            self.registry.histogram("kg.load_latency_s").observe(time.perf_counter() - start)
            self.registry.gauge("kg.triples_stored").set(len(self._cols))
            self.registry.gauge("kg.anchored_subjects").set(len(self._positions))
        return report

    def __len__(self) -> int:
        return len(self._cols)

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
