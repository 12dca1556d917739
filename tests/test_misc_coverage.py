"""Edge-coverage tests for small helpers across packages."""


import pytest

from repro.geo import BBox, EquiGrid
from repro.rdf import GraphTemplate, IRI, Literal, TriplePattern, var
from repro.synopses import CriticalPoint, SynopsesGenerator
from repro.geo import PositionFix


class TestTemplateCallables:
    def test_a_callable_nodes_value_is_coerced(self):
        template = GraphTemplate(patterns=[
            TriplePattern(var("s"), IRI("http://x/p"), lambda env: env["n"] * 2),
        ])
        triples = template.instantiate({"s": IRI("http://x/a"), "n": 21})
        assert triples[0].o == Literal.of(42)

    def test_a_callable_node_may_return_a_term(self):
        template = GraphTemplate(patterns=[
            TriplePattern(var("s"), IRI("http://x/p"), lambda env: IRI("http://x/o")),
        ])
        triples = template.instantiate({"s": IRI("http://x/a")})
        assert triples[0].o == IRI("http://x/o")


class TestGeoSmall:
    def test_bbox_center(self):
        assert BBox(0.0, 0.0, 2.0, 4.0).center == (1.0, 2.0)

    def test_grid_cell_size_m(self):
        grid = EquiGrid(BBox(0.0, 0.0, 1.0, 1.0), 10, 10)
        w, h = grid.cell_size_m()
        assert w == pytest.approx(11_120, rel=0.01)
        assert h == pytest.approx(11_120, rel=0.01)

    def test_grid_repr(self):
        grid = EquiGrid(BBox(0.0, 0.0, 1.0, 1.0), 4, 2)
        assert "4x2" in repr(grid)


class TestSynopsesSmall:
    def test_critical_point_repr(self):
        cp = CriticalPoint(PositionFix("v1", 12.0, 0.0, 40.0), "turn")
        assert "turn" in repr(cp) and "v1" in repr(cp)

    def test_compression_ratio_empty(self):
        assert SynopsesGenerator().compression_ratio() == 0.0

    def test_process_stream_is_lazy(self):
        gen = SynopsesGenerator()
        stream = gen.process_stream(iter([PositionFix("v1", 0.0, 0.0, 40.0)]))
        assert gen.points_in == 0          # nothing consumed yet
        list(stream)
        assert gen.points_in == 1
