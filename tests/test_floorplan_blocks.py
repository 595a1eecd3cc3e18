"""Unit and property tests for floorplan geometry primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.floorplan.blocks import (
    Block,
    Floorplan,
    FloorplanError,
    uniform_floorplan,
)


def make_block(name="b", x=0.0, y=0.0, w=2.0, h=2.0, power=4.0):
    return Block(name, x, y, w, h, power)


class TestBlock:
    def test_area_and_density(self):
        block = make_block(w=2.0, h=3.0, power=12.0)
        assert block.area == pytest.approx(6.0)
        assert block.power_density == pytest.approx(2.0)

    def test_edges(self):
        block = make_block(x=1.0, y=2.0, w=3.0, h=4.0)
        assert block.x2 == pytest.approx(4.0)
        assert block.y2 == pytest.approx(6.0)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(FloorplanError):
            make_block(w=0.0)
        with pytest.raises(FloorplanError):
            make_block(h=-1.0)

    def test_rejects_negative_power(self):
        with pytest.raises(FloorplanError):
            make_block(power=-0.1)

    def test_overlap_detection(self):
        a = make_block("a", 0, 0, 2, 2)
        b = make_block("b", 1, 1, 2, 2)
        c = make_block("c", 2, 0, 2, 2)  # shares an edge only
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)
        assert not c.overlaps(a)

    def test_with_power_and_moved_to(self):
        block = make_block(power=4.0)
        assert block.with_power(8.0).power == 8.0
        moved = block.moved_to(5.0, 6.0)
        assert (moved.x, moved.y) == (5.0, 6.0)
        assert moved.width == block.width


class TestFloorplan:
    def test_add_and_lookup(self):
        plan = Floorplan("p", 10, 10)
        plan.add(make_block("a"))
        assert "a" in plan
        assert plan.block("a").name == "a"
        assert len(plan) == 1

    def test_rejects_duplicate_names(self):
        plan = Floorplan("p", 10, 10)
        plan.add(make_block("a"))
        with pytest.raises(FloorplanError, match="duplicate"):
            plan.add(make_block("a", x=5.0))

    def test_rejects_out_of_bounds(self):
        plan = Floorplan("p", 10, 10)
        with pytest.raises(FloorplanError, match="outside"):
            plan.add(make_block("a", x=9.0, w=2.0))

    def test_rejects_overlap(self):
        plan = Floorplan("p", 10, 10)
        plan.add(make_block("a"))
        with pytest.raises(FloorplanError, match="overlaps"):
            plan.add(make_block("b", x=1.0, y=1.0))

    def test_missing_block_lookup_raises(self):
        plan = Floorplan("p", 10, 10)
        with pytest.raises(FloorplanError, match="no block"):
            plan.block("ghost")

    def test_total_power_and_area(self):
        plan = Floorplan("p", 10, 10)
        plan.add(make_block("a", power=3.0))
        plan.add(make_block("b", x=5, power=4.0))
        assert plan.total_power == pytest.approx(7.0)
        assert plan.die_area == pytest.approx(100.0)

    def test_replace_block(self):
        plan = Floorplan("p", 10, 10)
        plan.add(make_block("a", power=1.0))
        plan.replace_block(make_block("a", power=9.0))
        assert plan.block("a").power == 9.0

    def test_replace_missing_block_raises(self):
        plan = Floorplan("p", 10, 10)
        with pytest.raises(FloorplanError):
            plan.replace_block(make_block("nope"))

    def test_scaled_geometry_preserves_power_scales_density(self):
        plan = Floorplan("p", 10, 10, [make_block("a", power=4.0)])
        scaled = plan.scaled_geometry(2.0)
        assert scaled.die_width == pytest.approx(20.0)
        assert scaled.total_power == pytest.approx(4.0)
        assert scaled.block("a").power_density == pytest.approx(
            plan.block("a").power_density / 4.0
        )

    def test_copy_is_independent(self):
        plan = Floorplan("p", 10, 10, [make_block("a")])
        clone = plan.copy("q")
        clone.add(make_block("b", x=5))
        assert len(plan) == 1
        assert len(clone) == 2


class TestRasterize:
    def test_conserves_power(self):
        plan = Floorplan("p", 10, 10)
        plan.add(make_block("a", x=0.3, y=0.7, w=3.3, h=2.9, power=17.0))
        plan.add(make_block("b", x=5.1, y=5.2, w=2.2, h=1.7, power=5.0))
        raster = plan.rasterize(16, 16)
        cell_area = (10 / 16) * (10 / 16)
        assert raster.sum() * cell_area == pytest.approx(22.0, rel=1e-9)

    def test_uniform_block_uniform_density(self):
        plan = uniform_floorplan("u", 8.0, 8.0, power=32.0)
        raster = plan.rasterize(8, 8)
        assert np.allclose(raster, 0.5)

    def test_raster_orientation(self):
        # Power only in the bottom-left quadrant.
        plan = Floorplan("p", 10, 10, [make_block("a", 0, 0, 5, 5, 25.0)])
        raster = plan.rasterize(4, 4)
        assert raster[0, 0] > 0
        assert raster[3, 3] == 0

    def test_rejects_bad_grid(self):
        plan = Floorplan("p", 10, 10)
        with pytest.raises(FloorplanError):
            plan.rasterize(0, 4)

    @given(
        nx=st.integers(min_value=2, max_value=40),
        w=st.floats(min_value=0.5, max_value=9.5),
        power=st.floats(min_value=0.1, max_value=200.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_conserved_for_any_grid(self, nx, w, power):
        plan = Floorplan("p", 10, 10, [Block("a", 0.1, 0.2, w, 3.0, power)])
        raster = plan.rasterize(nx, nx)
        cell = (10 / nx) ** 2
        assert raster.sum() * cell == pytest.approx(power, rel=1e-6)

