"""Tests for the RDF substrate: terms, graph, templates, rdfizers."""

import math
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasources import generate_ports, generate_regions
from repro.geo import PositionFix
from repro.rdf import (
    A, BlankNode, Graph, GraphTemplate, IRI, Literal, TemplateError, Triple, TriplePattern, VOC, Variable,
    entity_iri, port_rdfizer, region_rdfizer, synopses_rdfizer, var,
)
from repro.rdf.rdfizers import (
    critical_point_record,
    fix_record,
    port_record,
    port_template,
    raw_position_template,
    region_record,
    region_template,
    semantic_node_template,
)
from repro.rdf.terms import WKT_LITERAL, XSD_DOUBLE, XSD_INTEGER, XSD_BOOLEAN, XSD_STRING
from repro.synopses import CriticalPoint

from tests.oracles import graph_template as reference


EX = "http://example.org/"


def iri(n):
    return IRI(EX + n)


class TestTerms:
    def test_literal_of_types(self):
        assert Literal.of(3).datatype == XSD_INTEGER
        assert Literal.of(3.5).datatype == XSD_DOUBLE
        assert Literal.of(True).datatype == XSD_BOOLEAN
        assert Literal.of(True).value == "true"

    def test_literal_of_a_numpy_float_is_its_python_float(self):
        assert Literal.of(np.float64(600.0)) == Literal.of(600.0) == Literal("600.0", XSD_DOUBLE)
        assert Literal.of(np.float64(0.1)).value == "0.1"

    def test_non_finite_doubles_use_the_xsd_spellings(self):
        assert [Literal.of(v).value for v in (math.nan, math.inf, -math.inf, np.float64("nan"))] == [
            "NaN", "INF", "-INF", "NaN",
        ]
        assert float(Literal.of(-math.inf).value) == -math.inf

    def test_literal_of_numpy_scalars_is_typed_like_python(self):
        assert Literal.of(np.int64(3)) == Literal.of(3) == Literal("3", XSD_INTEGER)
        assert Literal.of(np.uint8(7)) == Literal("7", XSD_INTEGER)
        assert Literal.of(np.bool_(True)) == Literal.of(True) == Literal("true", XSD_BOOLEAN)
        assert Literal.of(np.bool_(False)) == Literal("false", XSD_BOOLEAN)
        assert Literal.of(np.float32(0.5)) == Literal.of(0.5) == Literal("0.5", XSD_DOUBLE)
        assert Literal.of(np.float32("-inf")) == Literal("-INF", XSD_DOUBLE)
        assert Literal.of(np.str_("turn")) == Literal("turn", XSD_STRING)

    def test_triple_str(self):
        t = Triple(iri("s"), iri("p"), Literal.of("x"))
        assert str(t).endswith(" .")

    def test_variable_str(self):
        assert str(Variable("x")) == "?x"


texts = st.text(max_size=8)
iris = st.builds(IRI, texts)
datatypes = st.sampled_from([XSD_STRING, XSD_DOUBLE, XSD_INTEGER, WKT_LITERAL]) | texts
literals = st.builds(Literal, texts, datatypes)
blank_nodes = st.builds(BlankNode, texts)
ground_terms = st.one_of(iris, literals, blank_nodes)
triples = st.builds(Triple, st.one_of(iris, blank_nodes), iris, ground_terms)


@dataclass(frozen=True)
class FrozenIRI:
    value: str


@dataclass(frozen=True)
class FrozenLiteral:
    value: str
    datatype: str


@dataclass(frozen=True)
class FrozenBlankNode:
    label: str


@dataclass(frozen=True)
class FrozenTriple:
    s: object
    p: object
    o: object


def frozen(x):
    """The term as the frozen dataclass it used to be."""
    if isinstance(x, Triple):
        return FrozenTriple(frozen(x.s), frozen(x.p), frozen(x.o))
    if isinstance(x, Literal):
        return FrozenLiteral(x.value, x.datatype)
    return FrozenIRI(x.value) if isinstance(x, IRI) else FrozenBlankNode(x.label)


_UNPICKLE_UNDER_ANOTHER_SEED = """
import pickle, sys
from repro.rdf import IRI, BlankNode, Literal, Triple

def rebuilt(x):
    if isinstance(x, Triple):
        return Triple(rebuilt(x.s), rebuilt(x.p), rebuilt(x.o))
    if isinstance(x, Literal):
        return Literal(x.value, x.datatype)
    return IRI(x.value) if isinstance(x, IRI) else BlankNode(x.label)

index, items = pickle.load(sys.stdin.buffer)
print(hash("probe"))
for i, item in enumerate(items):
    fresh = rebuilt(item)
    assert hash(item) == hash(fresh), item
    assert index[fresh] == index[item] == i, item
print("ok")
"""


class TestTermHashAndPickle:
    """Each term and triple hashes once, at construction, to what the frozen
    dataclass computed on every probe (so every set and dict of them
    iterates as before), and hashes again on load in another process."""

    @given(ground_terms | triples)
    def test_hash_is_the_frozen_dataclass_hash(self, x):
        assert hash(x) == hash(frozen(x))

    @given(ground_terms | triples)
    def test_pickle_round_trip_is_equal_and_hashes_alike(self, x):
        back = pickle.loads(pickle.dumps(x))
        assert back == x and type(back) is type(x)
        assert hash(back) == hash(x)
        assert {back: 1}[x] == 1

    @given(st.lists(ground_terms | triples, min_size=1, max_size=20, unique=True))
    @settings(max_examples=4, deadline=None)
    def test_unpickled_under_another_hash_seed_it_finds_its_dict_entry(self, items):
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        index = {item: i for i, item in enumerate(items)}
        out = subprocess.run(
            [sys.executable, "-c", _UNPICKLE_UNDER_ANOTHER_SEED], input=pickle.dumps((index, items)),
            env={**os.environ, "PYTHONHASHSEED": seed}, capture_output=True, check=True, timeout=120,
        ).stdout.decode().split()
        assert out[1] == "ok"
        assert int(out[0]) != hash("probe")   # the child hashes strings differently


def graph_of(triples) -> Graph:
    g = Graph()
    g.add_all(triples)
    return g


def subjects(g: Graph, cls) -> set:
    """The distinct subjects typed ``cls``."""
    return {t.s for t in g.match(None, A, cls)}


class TestGraph:
    def make(self):
        g = Graph()
        g.add(Triple(iri("a"), iri("type"), iri("Vessel")))
        g.add(Triple(iri("b"), iri("type"), iri("Vessel")))
        g.add(Triple(iri("a"), iri("speed"), Literal.of(5.0)))
        return g

    def test_add_dedupes(self):
        g = Graph()
        t = Triple(iri("a"), iri("p"), iri("b"))
        assert g.add(t) is True
        assert g.add(t) is False
        assert len(g) == 1

    def test_match_by_predicate(self):
        g = self.make()
        assert len(list(g.match(None, iri("type"), None))) == 2

    def test_match_by_subject(self):
        g = self.make()
        assert len(list(g.match(iri("a"), None, None))) == 2

    def test_match_full_pattern(self):
        g = self.make()
        hits = list(g.match(iri("a"), iri("type"), iri("Vessel")))
        assert len(hits) == 1

    def test_match_variable_is_wildcard(self):
        g = self.make()
        assert len(list(g.match(Variable("s"), iri("type"), None))) == 2

    def test_discard(self):
        g = self.make()
        t = Triple(iri("a"), iri("speed"), Literal.of(5.0))
        assert g.discard(t) is True
        assert g.discard(t) is False
        assert len(list(g.match(iri("a"), iri("speed"), None))) == 0

    def test_objects_and_value(self):
        g = self.make()
        assert g.objects(iri("a"), iri("speed")) == {Literal.of(5.0)}
        assert g.value(iri("a"), iri("speed")) == Literal.of(5.0)
        assert g.value(iri("a"), iri("nope")) is None

    def test_value_ambiguous_raises(self):
        g = self.make()
        g.add(Triple(iri("a"), iri("speed"), Literal.of(6.0)))
        with pytest.raises(ValueError):
            g.value(iri("a"), iri("speed"))

    def test_bgp_join(self):
        g = self.make()
        sols = g.query_bgp([
            (Variable("v"), iri("type"), iri("Vessel")),
            (Variable("v"), iri("speed"), Variable("s")),
        ])
        assert len(sols) == 1
        assert sols[0]["v"] == iri("a")
        assert sols[0]["s"] == Literal.of(5.0)

    def test_bgp_no_solutions(self):
        g = self.make()
        sols = g.query_bgp([(Variable("v"), iri("missing"), Variable("x"))])
        assert sols == []

    def test_bgp_shared_variable_consistency(self):
        g = Graph()
        g.add(Triple(iri("x"), iri("p"), iri("y")))
        g.add(Triple(iri("y"), iri("q"), iri("z")))
        sols = g.query_bgp([
            (Variable("a"), iri("p"), Variable("b")),
            (Variable("b"), iri("q"), Variable("c")),
        ])
        assert len(sols) == 1 and sols[0]["c"] == iri("z")


class TestTemplates:
    def test_basic_instantiation(self):
        template = GraphTemplate(patterns=[
            TriplePattern(var("s"), A, IRI(EX + "Thing")),
            TriplePattern(var("s"), IRI(EX + "name"), var("name")),
        ])
        triples = template.instantiate({"s": iri("obj1"), "name": "Alpha"})
        assert len(triples) == 2
        assert triples[1].o == Literal.of("Alpha")

    def test_generated_variables(self):
        template = GraphTemplate(
            generators=[("s", lambda env: entity_iri("thing", env["id"]))],
            patterns=[TriplePattern(var("s"), A, IRI(EX + "Thing"))],
        )
        triples = template.instantiate({"id": "42"})
        assert "thing/42" in triples[0].s.value

    def test_unbound_required_raises(self):
        template = GraphTemplate(patterns=[TriplePattern(var("s"), A, var("missing"))])
        with pytest.raises(TemplateError):
            template.instantiate({"s": iri("x")})

    def test_optional_skipped(self):
        template = GraphTemplate(patterns=[
            TriplePattern(var("s"), A, IRI(EX + "T")),
            TriplePattern(var("s"), IRI(EX + "opt"), var("maybe"), optional=True),
        ])
        triples = template.instantiate({"s": iri("x")})
        assert len(triples) == 1

    def test_none_value_treated_unbound(self):
        template = GraphTemplate(patterns=[
            TriplePattern(var("s"), IRI(EX + "speed"), var("speed"), optional=True),
        ])
        assert template.instantiate({"s": iri("x"), "speed": None}) == []

    def test_a_skipped_optional_row_calls_no_later_node(self):
        template = GraphTemplate(patterns=[
            TriplePattern(var("s"), IRI(EX + "p"), lambda env: env["missing"], optional=True),
        ])
        assert template.instantiate({}) == []   # ?s is unbound: the object is never called
        with pytest.raises(KeyError):
            template.instantiate({"s": iri("x")})

    def test_literal_subject_rejected(self):
        template = GraphTemplate(patterns=[TriplePattern(var("s"), A, IRI(EX + "T"))])
        with pytest.raises(TemplateError):
            template.instantiate({"s": "just a string"})

    def test_non_iri_predicate_rejected(self):
        template = GraphTemplate(patterns=[TriplePattern(var("s"), var("p"), var("o"))])
        with pytest.raises(TemplateError):
            template.instantiate({"s": iri("x"), "p": "notiri", "o": "v"})

    def test_callable_node(self):
        template = GraphTemplate(patterns=[
            TriplePattern(var("s"), IRI(EX + "double"), lambda env: Literal.of(env["x"] * 2)),
        ])
        triples = template.instantiate({"s": iri("a"), "x": 21})
        assert triples[0].o == Literal.of(42)


    def test_blank_node_binds_like_any_term(self):
        template = GraphTemplate(patterns=[
            TriplePattern(var("s"), A, IRI(EX + "T")),
            TriplePattern(iri("x"), IRI(EX + "knows"), var("s")),
        ])
        b1 = BlankNode("b1")
        assert template.instantiate({"s": b1}) == [
            Triple(b1, A, IRI(EX + "T")), Triple(iri("x"), IRI(EX + "knows"), b1),
        ]

    def test_numpy_scalars_bind_as_typed_literals(self):
        template = GraphTemplate(patterns=[TriplePattern(var("s"), IRI(EX + "n"), var("n"))])
        cases = ((np.int64(3), Literal("3", XSD_INTEGER)), (np.bool_(False), Literal("false", XSD_BOOLEAN)))
        for value, want in cases:
            assert template.instantiate({"s": iri("a"), "n": value}) == [Triple(iri("a"), IRI(EX + "n"), want)]


NAMES = ("a", "b", "c")
#: Callable template nodes and generators: pure functions of the bindings.
NODE_FUNCTIONS = (
    lambda env: env.get("a"),
    lambda env: env.get("b"),
    lambda env: IRI(f"{EX}n/{len(env)}"),
    lambda env: env["c"],
    lambda env: Literal.of(sorted(env)[0]) if env else None,
)
GENERATORS = (
    lambda env: env.get("a"),
    lambda env: IRI(f"{EX}g/{env.get('b')}"),
    lambda env: None,
    lambda env: len(env),
    lambda env: BlankNode(f"g{len(env)}"),
)
raw_values = st.one_of(
    st.text(max_size=3), st.integers(-3, 3), st.floats(), st.booleans(),
    st.builds(np.int64, st.integers(-3, 3)),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.bool_, st.booleans()),
)
bound_values = st.one_of(ground_terms, raw_values, st.sampled_from([None, [1], Variable("a")]))
records = st.fixed_dictionaries({}, optional={name: bound_values for name in NAMES})
variables = st.sampled_from(NAMES).map(var)
nodes = st.one_of(ground_terms, variables, st.sampled_from(NODE_FUNCTIONS))
# Mostly well-formed rows, so that many templates get past their first one.
predicates = st.integers(0, 3).flatmap(lambda k: iris if k else nodes)
patterns = st.builds(
    TriplePattern, st.one_of(iris, blank_nodes, variables, nodes), predicates, nodes, st.booleans(),
)
templates = st.builds(
    GraphTemplate,
    st.lists(patterns, min_size=1, max_size=5),
    st.lists(st.tuples(st.sampled_from(NAMES + ("g",)), st.sampled_from(GENERATORS)), max_size=3),
)


def outcome(instantiate, *args):
    """The triples, or the exception's type and message."""
    try:
        return instantiate(*args)
    except Exception as exc:   # both sides must fail alike
        return type(exc), str(exc)


class TestCompiledTemplate:
    """``GraphTemplate.instantiate`` against the node-by-node interpreter of
    ``tests/oracles/graph_template.py``."""

    @given(templates, records)
    @settings(max_examples=300, deadline=None)
    def test_the_compiled_template_instantiates_like_the_interpreter(self, template, record):
        assert outcome(template.instantiate, record) == outcome(reference.instantiate, template, record)

    def test_the_rdfizer_templates_instantiate_like_the_interpreter(self):
        fixes = [
            PositionFix("v1", 0.0, 5.0, 40.0, speed=4.0, heading=90.0),
            PositionFix("v2", 60.0, -5.5, 41.25, alt=np.float64(3.0), heading=None),
            PositionFix("v3", math.nan, 5.0, 40.0, speed=np.float32(2.5)),
        ]
        cases = [(semantic_node_template(), critical_point_record(CriticalPoint(f, "turn"))) for f in fixes]
        cases += [(raw_position_template(), fix_record(f)) for f in fixes]
        cases += [(region_template(), region_record(r)) for r in generate_regions(3, seed=1)]
        cases += [(port_template(), port_record(p)) for p in generate_ports(3, seed=2)]
        for template, record in cases:
            got = template.instantiate(record)
            assert got == reference.instantiate(template, record) != []


def one_record_at_a_time(template, records):
    """The interpreter over a batch: each record's triples, in record order."""
    return [t for record in records for t in reference.instantiate(template, record)]


#: Generators of declared inputs: pure functions of the input values, one
#: of which fails on a non-string input.
KEYED_FUNCTIONS = (
    lambda *v: IRI(EX + "k/" + "/".join(map(repr, v))),
    lambda *v: IRI(EX + v[-1]),
    lambda *v: v[0],
    lambda *v: BlankNode(f"b{len(v)}{v[0]!r}"),
)
ENTITY_FIELDS = ("id", "kind")
keyed_generators = st.tuples(
    st.sampled_from(("g", "h", "g", "h", *NAMES)),
    st.lists(st.sampled_from(ENTITY_FIELDS + NAMES), min_size=1, max_size=2).map(tuple),
    st.sampled_from(KEYED_FUNCTIONS),
)
# Few entities, so that ids repeat within a batch while the other fields
# differ; and at most one hostile record, anywhere in the batch.
entity_records = st.fixed_dictionaries({
    "id": st.sampled_from(["v1", "v2", "v3"]), "kind": st.sampled_from(["turn", "stop"]),
    **{name: raw_values for name in NAMES},
})
batch_records = st.tuples(st.lists(entity_records, min_size=1, max_size=8), st.none() | records, st.integers(0, 8)).map(
    lambda drawn: drawn[0] if drawn[1] is None else [*drawn[0][: drawn[2]], drawn[1], *drawn[0][drawn[2]:]]
)
generated = st.sampled_from(["g", "h"]).map(var)
batch_nodes = st.one_of(ground_terms, st.sampled_from(NAMES + ENTITY_FIELDS).map(var), generated,
                        st.sampled_from(NODE_FUNCTIONS))
batch_templates = st.builds(
    GraphTemplate,
    st.lists(
        st.builds(
            TriplePattern, st.integers(0, 9).flatmap(lambda k: generated | iris if k else batch_nodes),
            st.integers(0, 9).flatmap(lambda k: iris if k else batch_nodes), batch_nodes, st.booleans(),
        ),
        min_size=1, max_size=5,
    ),
    st.lists(keyed_generators | st.tuples(st.sampled_from((*NAMES, "g")), st.sampled_from(GENERATORS)),
             min_size=1, max_size=3),
)
position_fixes = st.builds(
    PositionFix, st.sampled_from(["v1", "v2", "v3"]), st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0]),
    st.floats(-180, 180), st.floats(-90, 90), st.none() | st.floats() | st.builds(np.float64, st.floats()),
    st.none() | st.floats(), st.none() | st.floats(allow_nan=False),
)
critical_points = st.builds(CriticalPoint, position_fixes, st.sampled_from(["turn", "stop_start", "gap_end"]))


class TestBatchTemplate:
    """``GraphTemplate.instantiate_all`` against the interpreter applied one
    record at a time: what it builds once per batch must not show."""

    @given(batch_templates, batch_records)
    @settings(max_examples=300, deadline=None)
    def test_a_batch_instantiates_like_one_record_at_a_time(self, template, records):
        assert outcome(template.instantiate_all, records) == outcome(one_record_at_a_time, template, records)

    @given(st.lists(critical_points, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_the_synopses_rdfizer_emits_like_one_point_at_a_time(self, points):
        want = one_record_at_a_time(semantic_node_template(), [critical_point_record(cp) for cp in points])
        assert list(synopses_rdfizer(points).triples()) == want

    def test_the_first_failing_record_raises(self):
        template = GraphTemplate(
            generators=[("s", ("id",), lambda i: IRI(EX + i))],
            patterns=[TriplePattern(var("s"), IRI(EX + "p"), var("x"))],
        )
        good = {"id": "v1", "x": 1}
        # The last record fails first in column order: its id is no string.
        for at in range(3):
            batch = [good] * 3
            batch[at] = {"id": "v2", "x": None}
            with pytest.raises(TemplateError, match=r"null value for \?x in object"):
                template.instantiate_all([*batch, {"id": 7, "x": 1}])

    def test_a_row_of_once_per_input_values_is_keyed_on_their_own_inputs(self):
        template = GraphTemplate(
            generators=[
                ("e", ("id",), lambda i: IRI(EX + i)),
                ("k", ("id", "kind"), lambda i, k: IRI(f"{EX}{i}/{k}")),
            ],
            patterns=[TriplePattern(var("e"), A, IRI(EX + "E")), TriplePattern(var("k"), A, IRI(EX + "K"))],
        )
        records = [{"id": "v1", "kind": "turn"}, {"id": "v1", "kind": "stop"}, {"id": "v2", "kind": "turn"}]
        assert template.instantiate_all(records) == one_record_at_a_time(template, records)

    def test_an_entity_row_is_one_triple_per_entity(self):
        triples = list(synopses_rdfizer([make_cp(0.0), make_cp(60.0), make_cp(0.0, eid="v2")]).triples())
        typed = [t for t in triples if t.o == VOC.Trajectory]
        assert len(typed) == 3 and typed[0] is typed[1] and typed[0] == typed[1] != typed[2]

    def test_a_generator_runs_once_per_distinct_input_and_call(self):
        calls = []
        template = GraphTemplate(
            generators=[("e", ("id",), lambda i: calls.append(i) or IRI(EX + i))],
            patterns=[TriplePattern(var("e"), A, IRI(EX + "E"))],
        )
        records = [{"id": "v1"}, {"id": "v2"}, {"id": "v1"}]
        want = one_record_at_a_time(template, records)
        for _ in range(2):   # nothing is remembered past a call
            calls.clear()
            assert template.instantiate_all(records) == want
            assert sorted(calls) == ["v1", "v2"]


def make_cp(t=0.0, kind="turn", eid="v1"):
    fix = PositionFix(entity_id=eid, t=t, lon=5.0, lat=40.0, speed=4.0, heading=90.0)
    return CriticalPoint(fix, kind)


class TestRDFizers:
    def test_synopses_rdfizer_triples(self):
        gen = synopses_rdfizer([make_cp(0.0), make_cp(60.0, "stop_start")])
        triples = list(gen.triples())
        # Ten triples per record; the trajectory's type and its mover repeat.
        assert len(triples) == 20
        g = graph_of(triples)
        assert len(g) == 18
        nodes = subjects(g, VOC.SemanticNode)
        assert len(nodes) == 2
        # The trajectory links to both nodes.
        trajs = subjects(g, VOC.Trajectory)
        assert len(trajs) == 1
        traj = next(iter(trajs))
        assert len(g.objects(traj, VOC.hasSemanticNode)) == 2

    def test_synopsis_wkt_literal(self):
        gen = synopses_rdfizer([make_cp()])
        g = graph_of(gen.triples())
        wkts = list(g.match(None, VOC.asWKT, None))
        assert len(wkts) == 1
        assert "POINT" in wkts[0].o.value

    def test_region_rdfizer(self):
        regions = generate_regions(5, seed=1)
        triples = list(region_rdfizer(regions).triples())
        g = graph_of(triples)
        assert len(subjects(g, VOC.Region)) == 5
        assert len(triples) == 4 * len(regions)

    def test_port_rdfizer(self):
        gen = port_rdfizer(generate_ports(4, seed=2))
        g = graph_of(gen.triples())
        assert len(subjects(g, VOC.Port)) == 4

    @given(st.floats(0, 1e6), st.sampled_from(["turn", "stop_start", "gap_end"]))
    def test_rdfizer_deterministic_property(self, t, kind):
        a = list(synopses_rdfizer([make_cp(t, kind)]).triples())
        b = list(synopses_rdfizer([make_cp(t, kind)]).triples())
        assert a == b
