"""Tests for the knowledge-graph store: encoding, layouts, star queries."""

import numpy as np
import pytest

from repro.datasources import AISConfig, AISSimulator
from repro.geo import BBox, EquiGrid, PositionFix, SpatioTemporalGrid
from repro.kgstore import (
    Dictionary,
    KGStore,
    PropertyTable,
    SERIAL_BITS,
    STConstraint,
    STPosition,
    TriplesTable,
    VerticalPartitioning,
    star,
)
from repro.rdf import A, IRI, Literal, Triple, VOC, var
from repro.synopses import CriticalPoint, SynopsesGenerator
from repro.rdf.rdfizers import synopses_rdfizer

BOX = BBox(0.0, 0.0, 10.0, 10.0)


def make_dictionary():
    grid = EquiGrid(BOX, 10, 10)
    return Dictionary(SpatioTemporalGrid(grid, 0.0, 3600.0, 24))


class TestDictionary:
    def test_roundtrip(self):
        d = make_dictionary()
        term = IRI("http://x/a")
        term_id = d.encode(term)
        assert d.decode(term_id) == term
        assert d.encode(term) == term_id  # stable on re-encode

    def test_unanchored_slot_zero(self):
        d = make_dictionary()
        term_id = d.encode(IRI("http://x/a"))
        assert term_id >> SERIAL_BITS == 0

    def test_anchored_embeds_cell(self):
        d = make_dictionary()
        pos = STPosition(5.5, 5.5, 7200.0)
        term_id = d.encode(IRI("http://x/n1"), pos)
        assert term_id >> SERIAL_BITS == d.st_grid.cell_id(5.5, 5.5, 7200.0) + 1

    def test_distinct_terms_distinct_ids(self):
        d = make_dictionary()
        ids = {d.encode(IRI(f"http://x/{i}"), STPosition(5.5, 5.5, 0.0)) for i in range(100)}
        assert len(ids) == 100

    def test_id_matches_slots(self):
        d = make_dictionary()
        pos = STPosition(5.5, 5.5, 0.0)
        term_id = d.encode(IRI("http://x/n"), pos)
        slots = d.ids_for_range(BBox(5.0, 5.0, 6.0, 6.0), 0.0, 3600.0)
        far = d.ids_for_range(BBox(0.0, 0.0, 1.0, 1.0), 0.0, 3600.0)
        ids = np.asarray([term_id, d.encode(IRI("http://x/unanchored"))])
        assert Dictionary.ids_match_slots(ids, Dictionary.slots_to_array(slots)).tolist() == [True, False]
        assert Dictionary.ids_match_slots(ids, Dictionary.slots_to_array(far)).tolist() == [False, False]

    def test_decode_unknown(self):
        with pytest.raises(KeyError):
            make_dictionary().decode(12345)


TRIPLES = [(1, 10, 100), (1, 11, 101), (2, 10, 102), (3, 12, 103), (2, 11, 104)]


class TestLayouts:
    @pytest.mark.parametrize("cls", [TriplesTable, VerticalPartitioning, PropertyTable])
    def test_size_preserved(self, cls):
        layout = cls(TRIPLES)
        assert len(layout) == len(TRIPLES)

    @pytest.mark.parametrize("cls", [TriplesTable, VerticalPartitioning, PropertyTable])
    def test_scan_returns_everything(self, cls):
        layout = cls(TRIPLES)
        got = {
            triple
            for p_id in (10, 11, 12)
            for part in layout.scan_predicate(p_id)
            for triple in zip(part.s.tolist(), part.p.tolist(), part.o.tolist())
        }
        assert got == set(TRIPLES)

    @pytest.mark.parametrize("cls", [TriplesTable, VerticalPartitioning, PropertyTable])
    def test_scan_predicate(self, cls):
        layout = cls(TRIPLES)
        got = set()
        for part in layout.scan_predicate(10):
            got.update(zip(part.s.tolist(), part.p.tolist(), part.o.tolist()))
        assert got == {(1, 10, 100), (2, 10, 102)}

    def test_property_table_star_scan(self):
        layout = PropertyTable(TRIPLES)
        subjects, objects = layout.star_scan_arrays([10, 11])
        assert subjects.tolist() == [1, 2]
        assert objects.tolist() == [[100, 101], [102, 104]]

    def test_property_table_multivalue_overflow(self):
        layout = PropertyTable([(1, 10, 100), (1, 10, 200)])
        assert len(layout) == 2
        got = set()
        for part in layout.scan_predicate(10):
            got.update(zip(part.s.tolist(), part.p.tolist(), part.o.tolist()))
        assert got == {(1, 10, 100), (1, 10, 200)}


def build_store(layout="property_table"):
    """A store loaded with synopsis triples from a small simulated fleet."""
    sim = AISSimulator(
        n_vessels=6, bbox=BOX, seed=3,
        config=AISConfig(report_period_s=30.0, gap_probability_per_hour=0.0, outlier_probability=0.0),
    )
    gen = SynopsesGenerator()
    points = list(gen.process_stream(sim.fixes(0.0, 2 * 3600.0)))
    points += gen.flush()
    triples = list(synopses_rdfizer(points).triples())
    store = KGStore(BOX, t_origin=0.0, t_extent_s=2 * 3600.0, layout=layout, grid_cols=16, grid_rows=16, t_slots=8)
    report = store.load(triples)
    return store, report, points


def binding_key(binding):
    """Order-insensitive comparison key for a query-result binding dict."""
    return sorted((k, str(v)) for k, v in binding.items())


class TestKGStore:
    def test_load_report(self):
        store, report, points = build_store()
        assert report.triples > 0
        assert report.anchored_subjects > 0
        assert len(store) == report.triples

    def test_a_numpy_timestamp_anchors_its_node(self):
        point = CriticalPoint(PositionFix("v1", np.float64(600.0), lon=5.0, lat=5.0), "turn")
        store = KGStore(BOX, t_origin=0.0, t_extent_s=3600.0, grid_cols=16, grid_rows=16, t_slots=8)
        report = store.load(list(synopses_rdfizer([point]).triples()))
        assert report.anchored_subjects == 1
        query = star("node", (A, VOC.SemanticNode), st=STConstraint(BOX, 0.0, 3600.0))
        assert len(store.execute(query)[0]) == 1

    @pytest.mark.parametrize("half", [
        Literal.of(float("nan")),
        Literal.of(float("inf")),
        Literal.of(float("-inf")),
        Literal.wkt("POINT (nan 5)"),
    ], ids=["NaN", "INF", "-INF", "POINT (nan 5)"])
    def test_an_unusable_anchor_half_stores_the_triples_unanchored(self, half):
        node = IRI("http://x/node/0")
        predicate = VOC.asWKT if half.value.startswith("POINT") else VOC.timestamp
        anchor = {VOC.timestamp: Literal.of(600.0), VOC.asWKT: Literal.wkt("POINT (5.0 5.0)")}
        anchor[predicate] = half
        triples = [Triple(node, A, VOC.SemanticNode), *(Triple(node, p, o) for p, o in anchor.items())]
        store = KGStore(BOX, t_origin=0.0, t_extent_s=3600.0, grid_cols=16, grid_rows=16, t_slots=8)
        report = store.load(triples)
        assert len(store) == report.triples == 3
        assert report.anchored_subjects == store.anchored_subjects == 0
        query = star("node", (A, VOC.SemanticNode), st=STConstraint(BOX, 0.0, 3600.0))
        assert store.execute(query, pushdown=True)[0] == store.execute(query, pushdown=False)[0] == []

    def test_star_query_no_constraint(self):
        store, _, points = build_store()
        q = star("node", (A, VOC.SemanticNode), (VOC.timestamp, var("t")))
        results, metrics = store.execute(q)
        node_count = len({(p.entity_id, p.t) for p in points})
        assert metrics.results == len(results)
        assert len(results) == node_count

    def test_unknown_predicate_empty(self):
        store, _, _ = build_store()
        q = star("node", (IRI("http://nope/p"), var("x")))
        results, _ = store.execute(q)
        assert results == []

    def test_fixed_object_arm(self):
        store, _, points = build_store()
        q = star("node", (A, VOC.SemanticNode), (VOC.eventType, Literal.of("start")))
        results, _ = store.execute(q)
        starts = [p for p in points if p.kind == "start"]
        assert len(results) == len({(p.entity_id, p.t) for p in starts})

    @pytest.mark.parametrize("layout", ["property_table", "triples_table", "vertical_partitioning"])
    def test_layouts_agree(self, layout):
        reference_store, _, _ = build_store("property_table")
        store, _, _ = build_store(layout)
        st = STConstraint(BBox(2.0, 2.0, 8.0, 8.0), 0.0, 3600.0)
        q = star("node", (A, VOC.SemanticNode), (VOC.timestamp, var("t")), st=st)
        ref, _ = reference_store.execute(q)
        got, _ = store.execute(q)
        assert sorted(map(binding_key, got)) == sorted(map(binding_key, ref))

    def test_pushdown_equals_postfilter(self):
        store, _, _ = build_store()
        st = STConstraint(BBox(1.0, 1.0, 9.0, 9.0), 600.0, 5400.0)
        q = star("node", (A, VOC.SemanticNode), (VOC.timestamp, var("t")), st=st)
        with_push, m_push = store.execute(q, pushdown=True)
        without, m_post = store.execute(q, pushdown=False)
        assert sorted(map(binding_key, with_push)) == sorted(map(binding_key, without))
        # Pushdown refines fewer subjects than the post-filter plan.
        assert m_push.refined <= m_post.refined

    def test_st_constraint_filters(self):
        store, _, _ = build_store()
        st = STConstraint(BBox(0.0, 0.0, 10.0, 10.0), 1e9, 2e9)  # empty time window
        q = star("node", (A, VOC.SemanticNode), st=st)
        results, _ = store.execute(q)
        assert results == []

    def test_invalid_layout(self):
        with pytest.raises(ValueError):
            KGStore(BOX, 0.0, 3600.0, layout="nope")

    def test_query_before_load(self):
        store = KGStore(BOX, 0.0, 3600.0)
        with pytest.raises(RuntimeError):
            store.execute(star("s", (A, VOC.SemanticNode)))

    def test_compare_plans_shape(self):
        store, _, _ = build_store()
        st = STConstraint(BBox(4.0, 4.0, 6.0, 6.0), 0.0, 1800.0)
        q = star(
            "node",
            (A, VOC.SemanticNode),
            (VOC.timestamp, var("t")),
            (VOC.eventType, var("k")),
            st=st,
        )
        comparison = store.compare_plans(q, repeat=2)
        assert comparison["baseline_s"] > 0
        assert comparison["pushdown_s"] > 0


class TestSTConstraint:
    def test_contains(self):
        st = STConstraint(BBox(0, 0, 1, 1), 0.0, 10.0)
        assert st.contains(0.5, 0.5, 5.0)
        assert not st.contains(0.5, 0.5, 50.0)
        assert not st.contains(2.0, 0.5, 5.0)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            STConstraint(BBox(0, 0, 1, 1), 10.0, 0.0)

    def test_star_needs_arms(self):
        with pytest.raises(ValueError):
            star("s")
