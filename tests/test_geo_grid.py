"""Tests for the equi-grid and spatio-temporal grid."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo.geometry import BBox, Polygon
from repro.geo.grid import EquiGrid, SpatioTemporalGrid

BOX = BBox(0.0, 0.0, 10.0, 5.0)


def make_grid(cols=10, rows=5):
    return EquiGrid(BOX, cols, rows)


class TestEquiGrid:
    def test_len(self):
        assert len(make_grid()) == 50

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            EquiGrid(BOX, 0, 5)

    def test_locate_interior(self):
        g = make_grid()
        assert g.locate(0.5, 0.5) == (0, 0)
        assert g.locate(9.5, 4.5) == (9, 4)

    def test_locate_clamps_outside(self):
        g = make_grid()
        assert g.locate(-5.0, -5.0) == (0, 0)
        assert g.locate(50.0, 50.0) == (9, 4)

    def test_cell_id_row_major(self):
        g = make_grid()
        assert g.cell_id(0.5, 0.5) == 0
        assert g.cell_id(1.5, 0.5) == 1
        assert g.cell_id(0.5, 1.5) == 10

    def test_cell_of_id_roundtrip(self):
        g = make_grid()
        cell = g.cell_of_id(23)
        assert cell.row * g.cols + cell.col == 23
        assert cell.cell_id == 23

    def test_cell_of_id_out_of_range(self):
        with pytest.raises(ValueError):
            make_grid().cell_of_id(50)

    def test_cell_box_tiles_bbox(self):
        g = make_grid()
        assert g.cell_box(0, 0).min_lon == BOX.min_lon
        assert g.cell_box(9, 4).max_lon == pytest.approx(BOX.max_lon)

    def test_with_cell_size(self):
        g = EquiGrid.with_cell_size(BOX, 1.0)
        assert g.cols == 10 and g.rows == 5

    def test_neighbours_interior(self):
        g = make_grid()
        n = list(g.neighbours(5, 2))
        assert len(n) == 9
        assert (5, 2) in n

    def test_neighbours_corner(self):
        g = make_grid()
        assert len(list(g.neighbours(0, 0))) == 4

    def test_neighbour_ids_match_neighbours(self):
        g = make_grid()
        ids = g.neighbour_ids(g.cell_id(5.5, 2.5))
        assert g.cell_id(5.5, 2.5) in ids

    def test_rasterize_polygon(self):
        g = make_grid()
        poly = Polygon([(0.1, 0.1), (2.9, 0.1), (2.9, 1.9), (0.1, 1.9)])
        cells = g.rasterize_polygon(poly)
        # Spans cols 0..2, rows 0..1 => 6 cells.
        assert sorted(cells) == [0, 1, 2, 10, 11, 12]

    def test_rasterize_excludes_far_cells(self):
        g = make_grid()
        poly = Polygon([(0.1, 0.1), (0.9, 0.1), (0.9, 0.9)])
        assert g.rasterize_polygon(poly) == [0]

    def test_radius_to_cells_positive(self):
        g = make_grid()
        assert g.radius_to_cells(0.0) == 0
        assert g.radius_to_cells(1.0) >= 1

    @given(st.floats(0.0, 10.0), st.floats(0.0, 5.0))
    def test_locate_in_range_property(self, lon, lat):
        g = make_grid()
        col, row = g.locate(lon, lat)
        assert 0 <= col < g.cols and 0 <= row < g.rows

    @given(st.floats(0.01, 9.99), st.floats(0.01, 4.99))
    def test_point_in_its_cell_box_property(self, lon, lat):
        g = make_grid()
        col, row = g.locate(lon, lat)
        assert g.cell_box(col, row).contains(lon, lat)


class TestDisjointQueries:
    """Regression: out-of-area queries must not fabricate phantom border cells."""

    def test_bbox_outside_grid_overlaps_nothing(self):
        g = make_grid()
        assert list(g.cells_overlapping_bbox(BBox(20.0, 20.0, 25.0, 22.0))) == []

    def test_bbox_outside_one_axis_overlaps_nothing(self):
        g = make_grid()
        # Inside the lon range but entirely north of the grid.
        assert list(g.cells_overlapping_bbox(BBox(2.0, 6.0, 4.0, 8.0))) == []

    def test_polygon_outside_grid_rasterizes_empty(self):
        g = make_grid()
        poly = Polygon([(20.0, 20.0), (22.0, 20.0), (22.0, 22.0), (20.0, 22.0)])
        assert g.rasterize_polygon(poly) == []

    def test_touching_box_still_overlaps(self):
        g = make_grid()
        # Shares only the eastern border: touching is not disjoint.
        cells = list(g.cells_overlapping_bbox(BBox(10.0, 0.0, 12.0, 1.0)))
        assert cells and all(col == g.cols - 1 for col, _ in cells)

    def test_st_range_outside_grid_is_empty(self):
        st_grid = SpatioTemporalGrid(make_grid(), t_origin=0.0, t_step_s=60.0, t_slots=4)
        assert st_grid.ids_for_range(BBox(30.0, 30.0, 31.0, 31.0), 0.0, 60.0) == set()


class TestSpatioTemporalGrid:
    def make(self):
        return SpatioTemporalGrid(make_grid(), t_origin=0.0, t_step_s=3600.0, t_slots=24)

    def test_len(self):
        assert len(self.make()) == 50 * 24

    def test_t_slot(self):
        st_grid = self.make()
        assert st_grid.t_slot(0.0) == 0
        assert st_grid.t_slot(3599.0) == 0
        assert st_grid.t_slot(3600.0) == 1
        assert st_grid.t_slot(1e9) == 23  # clamped

    def test_cell_id_is_slot_major(self):
        st_grid = self.make()
        assert st_grid.cell_id(0.5, 0.5, 7200.0) == 2 * len(st_grid.grid)

    def test_ids_for_range(self):
        st_grid = self.make()
        ids = st_grid.ids_for_range(BBox(0.0, 0.0, 1.0, 1.0), 0.0, 3600.0)
        # Box covers cells spanning cols 0-1 x rows 0-1 (edges touch the next cell), slots 0-1.
        assert st_grid.cell_id(0.5, 0.5, 0.0) in ids
        assert st_grid.cell_id(0.5, 0.5, 3600.0) in ids

    def test_ids_for_range_validates(self):
        with pytest.raises(ValueError):
            self.make().ids_for_range(BBox(0, 0, 1, 1), 10.0, 0.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SpatioTemporalGrid(make_grid(), 0.0, 0.0, 10)
        with pytest.raises(ValueError):
            SpatioTemporalGrid(make_grid(), 0.0, 60.0, 0)
