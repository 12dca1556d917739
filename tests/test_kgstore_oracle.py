"""``KGStore.execute`` against the raw-triple star-query oracle.

The store answers a star query from encoded ids, a layout and (on the
pushdown plan) the spatio-temporal slot embedded in each id;
``tests/oracles/star_query.py`` answers it from the ``Triple`` list
alone. These properties hold the two equal on every layout and both
plans over randomized graphs — subjects with missing arms, other types,
sparse extra predicates, arbitrary space-time windows, and *reference
triples placed before the referenced node's own triples*, the order in
which an id minted at first sight lands in the wrong cell — plus the
cheap :class:`QueryMetrics` invariants every execution must satisfy.
:class:`TestSplitLoads` holds a store loaded in consecutive slices of one
triple list equal to one load of it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import BBox
from repro.kgstore import KGStore, STConstraint, star
from repro.rdf import A, VOC, IRI, Literal, Triple, var

from tests.oracles.star_query import canonical, star_bindings

BOX = BBox(0.0, 0.0, 10.0, 10.0)
T_EXTENT = 3600.0
LAYOUTS = ("triples_table", "vertical_partitioning", "property_table")

OTHER_TYPE = IRI("http://example.org/type/Other")
EXTRA_PRED = IRI("http://example.org/p/extra")
TRAJECTORY = IRI("http://example.org/trajectory/0")


#: One subject: (lon, lat, t, is_raw_position, has_timestamp, has_wkt, extra,
#: where the trajectory's reference to it goes).
subject_specs = st.lists(
    st.tuples(
        st.floats(0.1, 9.9, allow_nan=False),
        st.floats(0.1, 9.9, allow_nan=False),
        st.floats(0.0, T_EXTENT, allow_nan=False),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.none() | st.integers(0, 3),
        st.sampled_from(("before", "after", "none")),
    ),
    min_size=1,
    max_size=30,
)

#: No constraint, the whole box (every described node is in range, so a
#: mis-celled id always costs a row), or an arbitrary sub-range.
windows = st.none() | st.just(STConstraint(BOX, 0.0, T_EXTENT)) | st.tuples(
    st.floats(0.0, 5.0, allow_nan=False),
    st.floats(0.0, 5.0, allow_nan=False),
    st.floats(5.0, 10.0, allow_nan=False),
    st.floats(5.0, 10.0, allow_nan=False),
    st.floats(0.0, 1800.0, allow_nan=False),
    st.floats(1800.0, T_EXTENT, allow_nan=False),
).map(lambda w: STConstraint(BBox(w[0], w[1], w[2], w[3]), w[4], w[5]))


def _triples(specs, first=0):
    triples = []
    for i, (lon, lat, t, is_raw, has_t, has_wkt, extra, ref) in enumerate(specs, start=first):
        node = IRI(f"http://example.org/node/{i}")
        reference = Triple(TRAJECTORY, VOC.hasSemanticNode, node)
        if ref == "before":
            triples.append(reference)
        triples.append(Triple(node, A, VOC.RawPosition if is_raw else OTHER_TYPE))
        if has_t:
            triples.append(Triple(node, VOC.timestamp, Literal.of(float(t))))
        if has_wkt:
            triples.append(Triple(node, VOC.asWKT, Literal(f"POINT ({lon:.5f} {lat:.5f})")))
        if extra is not None:
            triples.append(Triple(node, EXTRA_PRED, Literal.of(extra)))
        if ref == "after":
            triples.append(reference)
    return triples


def _empty_store(layout):
    return KGStore(BOX, t_origin=0.0, t_extent_s=T_EXTENT, layout=layout,
                   grid_cols=8, grid_rows=8, t_slots=6)


def node_query(st_window=None):
    return star(
        "node",
        (A, VOC.RawPosition),
        (VOC.timestamp, var("t")),
        (VOC.asWKT, var("wkt")),
        st=st_window,
    )


def assert_matches_oracle(kg, triples, query):
    """Both plans return the oracle's bindings, in one order, and their
    metrics are consistent with each other and with themselves."""
    want = canonical(star_bindings(triples, query))
    pushed, pushed_metrics = kg.execute(query, pushdown=True)
    filtered, filtered_metrics = kg.execute(query, pushdown=False)
    assert canonical(pushed) == want
    assert pushed == filtered
    for metrics in (pushed_metrics, filtered_metrics):
        assert metrics.results == len(want) <= metrics.candidates <= metrics.join_rows
        assert metrics.refined == (metrics.candidates if query.st is not None else 0)
    assert pushed_metrics.candidates <= filtered_metrics.candidates


class TestStarQueryOracle:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @given(specs=subject_specs, window=windows)
    @settings(max_examples=40, deadline=None)
    def test_bindings_match_oracle_on_both_plans(self, layout, specs, window):
        triples = _triples(specs)
        kg = _empty_store(layout)
        kg.load(triples)
        assert_matches_oracle(kg, triples, node_query(window))

    @pytest.mark.parametrize("layout", LAYOUTS)
    @given(specs=subject_specs)
    @settings(max_examples=20, deadline=None)
    def test_extra_arm_and_fixed_object(self, layout, specs):
        """A star with a sparse extra arm and an all-fixed-object variant."""
        triples = _triples(specs)
        kg = _empty_store(layout)
        kg.load(triples)
        sparse = star(
            "node",
            (A, VOC.RawPosition),
            (VOC.timestamp, var("t")),
            (EXTRA_PRED, var("x")),
            st=STConstraint(BOX, 0.0, T_EXTENT),
        )
        fixed = star("node", (A, VOC.RawPosition), (EXTRA_PRED, Literal.of(1)))
        for query in (sparse, fixed):
            assert_matches_oracle(kg, triples, query)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_variable_conflict_binding_dropped(self, layout):
        """The same variable bound to two different objects drops the row."""
        node = IRI("http://example.org/node/0")
        triples = [
            Triple(node, A, VOC.RawPosition),
            Triple(node, VOC.timestamp, Literal.of(100.0)),
            Triple(node, VOC.asWKT, Literal("POINT (5.0 5.0)")),
        ]
        kg = _empty_store(layout)
        kg.load(triples)
        conflicting = star("node", (VOC.timestamp, var("x")), (VOC.asWKT, var("x")))
        assert star_bindings(triples, conflicting) == []
        assert_matches_oracle(kg, triples, conflicting)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @given(specs=subject_specs, more=subject_specs)
    @settings(max_examples=15, deadline=None)
    def test_incremental_loads_stay_equivalent(self, layout, specs, more):
        """A second load() batch (concat into the columnar buffers) of new
        nodes under the same trajectory answers like one load of both."""
        batches = [_triples(specs), _triples(more, first=len(specs))]
        kg = _empty_store(layout)
        for batch in batches:
            kg.load(batch)
        query = node_query(STConstraint(BBox(2.0, 2.0, 8.0, 8.0), 0.0, T_EXTENT / 2))
        assert_matches_oracle(kg, batches[0] + batches[1], query)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_node_referenced_before_it_is_described_keeps_its_cell(self, layout):
        """``traj hasSemanticNode node`` ahead of the node's own triples:
        the node's id is minted at the reference, and must still embed the
        node's spatio-temporal cell or pushdown prunes a row post-filter
        returns."""
        node = IRI("http://example.org/node/0")
        triples = [
            Triple(TRAJECTORY, VOC.hasSemanticNode, node),
            Triple(node, A, VOC.RawPosition),
            Triple(node, VOC.timestamp, Literal.of(100.0)),
            Triple(node, VOC.asWKT, Literal("POINT (5.0 5.0)")),
        ]
        kg = _empty_store(layout)
        kg.load(triples)
        query = node_query(STConstraint(BOX, 0.0, T_EXTENT))
        assert len(star_bindings(triples, query)) == 1
        assert_matches_oracle(kg, triples, query)


def _plan_results(kg, query):
    """Both plans' bindings and metrics, wall time left out."""
    results = []
    for pushdown in (True, False):
        bindings, metrics = kg.execute(query, pushdown=pushdown)
        metrics.wall_seconds = 0.0
        results.append((bindings, metrics))
    return results


class TestSplitLoads:
    """Loads are additive: one triple list cut into any k >= 1 consecutive
    batches leaves the store as one load of the whole list would."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @given(specs=subject_specs, cuts=st.lists(st.floats(0.0, 1.0), max_size=4), window=windows)
    @settings(max_examples=40, deadline=None)
    def test_any_split_answers_like_one_load(self, layout, specs, cuts, window):
        """Cuts fall anywhere, so they separate a reference from the node
        it references and the two halves of one anchor."""
        triples = _triples(specs)
        bounds = sorted(int(c * len(triples)) for c in cuts)
        batches = [triples[a:b] for a, b in zip([0, *bounds], [*bounds, len(triples)])]
        whole, split = _empty_store(layout), _empty_store(layout)
        whole.load(triples)
        for batch in batches:
            split.load(batch)
        assert len(split) == len(whole) == len(triples)
        assert split.anchored_subjects == whole.anchored_subjects
        fixed = star("node", (A, VOC.RawPosition), (EXTRA_PRED, Literal.of(1)))
        for query in (node_query(window), node_query(STConstraint(BOX, 0.0, T_EXTENT)), fixed):
            assert _plan_results(split, query) == _plan_results(whole, query)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_anchor_halves_in_different_loads_anchor_the_subject(self, layout):
        node = IRI("http://example.org/node/0")
        triples = [
            Triple(node, A, VOC.RawPosition),
            Triple(node, VOC.asWKT, Literal("POINT (5.0 5.0)")),
            Triple(node, VOC.timestamp, Literal.of(100.0)),
        ]
        kg = _empty_store(layout)
        kg.load(triples[:2])
        assert kg.anchored_subjects == 0
        kg.load(triples[2:])
        assert kg.anchored_subjects == 1
        assert_matches_oracle(kg, triples, node_query(STConstraint(BOX, 0.0, T_EXTENT)))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_node_referenced_a_load_before_its_triples_is_recelled(self, layout):
        node = IRI("http://example.org/node/0")
        triples = [
            Triple(TRAJECTORY, VOC.hasSemanticNode, node),
            Triple(node, A, VOC.RawPosition),
            Triple(node, VOC.timestamp, Literal.of(100.0)),
            Triple(node, VOC.asWKT, Literal("POINT (5.0 5.0)")),
        ]
        kg = _empty_store(layout)
        kg.load(triples[:1])
        kg.load(triples[1:])
        query = node_query(STConstraint(BOX, 0.0, T_EXTENT))
        assert len(kg.execute(query, pushdown=True)[0]) == 1
        assert_matches_oracle(kg, triples, query)
