"""Tests for the RDF substrate: terms, graph, templates, rdfizers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datasources import generate_ports, generate_regions
from repro.geo import PositionFix
from repro.rdf import A, Graph, GraphTemplate, IRI, Literal, TemplateError, Triple, TriplePattern, VOC, Variable, entity_iri, port_rdfizer, region_rdfizer, synopses_rdfizer, var
from repro.rdf.terms import XSD_DOUBLE, XSD_INTEGER, XSD_BOOLEAN
from repro.synopses import CriticalPoint


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

    def test_triple_str(self):
        t = Triple(iri("s"), iri("p"), Literal.of("x"))
        assert str(t).endswith(" .")

    def test_variable_str(self):
        assert str(Variable("x")) == "?x"


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


def make_cp(t=0.0, kind="turn", eid="v1"):
    fix = PositionFix(entity_id=eid, t=t, lon=5.0, lat=40.0, speed=4.0, heading=90.0)
    return CriticalPoint(fix, kind)


class TestRDFizers:
    def test_synopses_rdfizer_triples(self):
        gen = synopses_rdfizer([make_cp(0.0), make_cp(60.0, "stop_start")])
        triples = list(gen.triples())
        assert gen.stats.records == 2
        assert gen.stats.triples == len(triples)
        g = graph_of(triples)
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
        gen = region_rdfizer(regions)
        g = graph_of(gen.triples())
        assert len(subjects(g, VOC.Region)) == 5
        assert gen.stats.triples_per_record == pytest.approx(4.0)

    def test_port_rdfizer(self):
        gen = port_rdfizer(generate_ports(4, seed=2))
        g = graph_of(gen.triples())
        assert len(subjects(g, VOC.Port)) == 4

    def test_throughput_counter(self):
        gen = synopses_rdfizer([make_cp(float(i)) for i in range(100)])
        list(gen.triples())
        assert gen.stats.records_per_second > 0

    @given(st.floats(0, 1e6), st.sampled_from(["turn", "stop_start", "gap_end"]))
    def test_rdfizer_deterministic_property(self, t, kind):
        a = list(synopses_rdfizer([make_cp(t, kind)]).triples())
        b = list(synopses_rdfizer([make_cp(t, kind)]).triples())
        assert a == b
