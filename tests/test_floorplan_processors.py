"""Tests for the Core 2 Duo and Pentium 4 floorplans and stacking analysis."""

import pytest

from repro.floorplan import (
    core2duo_floorplan,
    pentium4_3d_floorplans,
    pentium4_planar_floorplan,
    pentium4_worstcase_3d,
    power_density_map,
    power_density_report,
    repair_hotspots,
    stacked_cache_die,
)
from repro.floorplan.blocks import Block, Floorplan, FloorplanError
from repro.floorplan.core2duo import (
    L2_4MB_POWER_W,
    STACKED_32MB_DRAM_POWER_W,
    STACKED_64MB_DRAM_POWER_W,
    STACKED_8MB_SRAM_POWER_W,
)
from repro.floorplan.pentium4 import P4_3D_POWER_FACTOR

#: Total power of the baseline Core 2 Duo skew (Section 3).
CORE2_TOTAL_POWER_W = 92.0

#: Total power of the Pentium 4 skew (Section 4, Table 5).
P4_TOTAL_POWER_W = 147.0


class TestCore2Duo:
    def test_total_power_is_92w(self):
        assert core2duo_floorplan().total_power == pytest.approx(
            CORE2_TOTAL_POWER_W
        )

    def test_l2_occupies_about_half_the_die(self):
        plan = core2duo_floorplan()
        l2 = plan.block("L2")
        assert 0.4 <= l2.area / plan.die_area <= 0.55

    def test_hotspots_are_fp_rs_ldst(self):
        # Figure 6: "The greatest concentration of power is in the FP
        # units, reservation stations, and the load/store unit".
        plan = core2duo_floorplan()
        densities = sorted(
            plan.blocks, key=lambda b: b.power_density, reverse=True
        )
        top_names = {b.name.split("-")[0] for b in densities[:6]}
        assert top_names == {"FP", "RS", "LdSt"}

    def test_has_two_symmetric_cores(self):
        plan = core2duo_floorplan()
        c1 = [b for b in plan.blocks if b.name.endswith("-c1")]
        c2 = [b for b in plan.blocks if b.name.endswith("-c2")]
        assert len(c1) == len(c2) == 9
        assert sum(b.power for b in c1) == pytest.approx(
            sum(b.power for b in c2)
        )

    def test_no_l2_variant_is_smaller(self):
        base = core2duo_floorplan()
        nol2 = core2duo_floorplan(with_l2=False)
        assert nol2.die_area < base.die_area
        assert "L2" not in nol2
        assert "DRAMTags" in nol2

    def test_stacked_cache_powers_match_figure7(self):
        base = core2duo_floorplan()
        assert stacked_cache_die("sram-8mb", base).total_power == (
            pytest.approx(STACKED_8MB_SRAM_POWER_W)
        )
        assert stacked_cache_die("dram-32mb", base).total_power == (
            pytest.approx(STACKED_32MB_DRAM_POWER_W)
        )
        assert stacked_cache_die("dram-64mb", base).total_power == (
            pytest.approx(STACKED_64MB_DRAM_POWER_W)
        )

    def test_figure7_12mb_totals_106w(self):
        # "increases the total power by 14W to 106W"
        base = core2duo_floorplan()
        cache = stacked_cache_die("sram-8mb", base)
        assert base.total_power + cache.total_power == pytest.approx(106.0)

    def test_stacked_cache_matches_footprint(self):
        base = core2duo_floorplan()
        cache = stacked_cache_die("dram-64mb", base)
        assert cache.die_width == base.die_width
        assert cache.die_height == base.die_height

    def test_unknown_cache_kind_raises(self):
        with pytest.raises(FloorplanError):
            stacked_cache_die("sram-1gb", core2duo_floorplan())

    def test_l2_power_matches_figure7(self):
        assert core2duo_floorplan().block("L2").power == pytest.approx(
            L2_4MB_POWER_W
        )


class TestPentium4:
    def test_total_power_is_147w(self):
        assert pentium4_planar_floorplan().total_power == pytest.approx(
            P4_TOTAL_POWER_W
        )

    def test_scheduler_is_hottest(self):
        # Section 4: "the planar floorplan's hottest area over the
        # instruction scheduler".
        plan = pentium4_planar_floorplan()
        hottest = max(plan.blocks, key=lambda b: b.power_density)
        assert hottest.name == "Sched"

    def test_simd_between_fp_and_rf(self):
        # Figure 9: the SIMD unit is intentionally between FP and RF.
        plan = pentium4_planar_floorplan()
        fp, simd, rf = plan.block("FP"), plan.block("SIMD"), plan.block("RF")
        assert fp.x2 <= simd.x + 1e-9
        assert simd.x2 <= rf.x + 1e-9

    def test_3d_power_is_85_percent(self):
        bottom, top = pentium4_3d_floorplans()
        total = bottom.total_power + top.total_power
        assert total == pytest.approx(
            P4_TOTAL_POWER_W * P4_3D_POWER_FACTOR, rel=1e-6
        )

    def test_3d_footprint_is_about_half(self):
        planar = pentium4_planar_floorplan()
        bottom, _ = pentium4_3d_floorplans()
        ratio = bottom.die_area / planar.die_area
        assert 0.45 <= ratio <= 0.56

    def test_higher_power_die_is_bottom(self):
        bottom, top = pentium4_3d_floorplans()
        assert bottom.total_power > top.total_power

    def test_dcache_overlaps_functional_units(self):
        # Figure 10: the 3D floorplan overlaps D$ (top) with F (bottom).
        bottom, top = pentium4_3d_floorplans()
        dcache, funits = top.block("D$"), bottom.block("F")
        x_overlap = min(dcache.x2, funits.x2) - max(dcache.x, funits.x)
        y_overlap = min(dcache.y2, funits.y2) - max(dcache.y, funits.y)
        assert x_overlap > 0 and y_overlap > 0

    def test_fp_overlaps_simd_rf_area(self):
        bottom, top = pentium4_3d_floorplans()
        fp, simd = top.block("FP"), bottom.block("SIMD")
        x_overlap = min(fp.x2, simd.x2) - max(fp.x, simd.x)
        assert x_overlap > 0

    def test_density_ratio_is_moderate(self):
        # Section 4: iterative repair yields ~1.3x (we allow up to 1.5).
        planar = pentium4_planar_floorplan()
        bottom, top = pentium4_3d_floorplans()
        report = power_density_report(bottom, top, reference=planar)
        assert 1.15 <= report.peak_vs_reference <= 1.55

    def test_worstcase_is_exactly_2x_density(self):
        planar = pentium4_planar_floorplan()
        wb, wt = pentium4_worstcase_3d()
        report = power_density_report(wb, wt, reference=planar)
        assert report.peak_vs_reference == pytest.approx(2.0, rel=0.02)
        assert report.total_power == pytest.approx(P4_TOTAL_POWER_W)

    def test_worstcase_footprint_is_exactly_half(self):
        planar = pentium4_planar_floorplan()
        wb, _ = pentium4_worstcase_3d()
        assert wb.die_area == pytest.approx(planar.die_area / 2, rel=1e-6)


class TestStackingAnalysis:
    def _simple_pair(self):
        bottom = Floorplan("b", 10, 10, [Block("hot", 0, 0, 2, 2, 20.0)])
        top = Floorplan("t", 10, 10, [Block("warm", 0, 0, 2, 2, 8.0)])
        return bottom, top

    def test_density_map_adds_dies(self):
        bottom, top = self._simple_pair()
        combined = power_density_map(bottom, top, nx=10, ny=10)
        assert combined.max() == pytest.approx(7.0)  # (20 + 8) / 4 mm^2

    def test_density_map_requires_matching_outline(self):
        bottom, _ = self._simple_pair()
        other = Floorplan("t", 9, 10)
        with pytest.raises(FloorplanError, match="outline"):
            power_density_map(bottom, other)

    def test_repair_moves_block_off_hotspot(self):
        bottom, top = self._simple_pair()
        repaired, iterations = repair_hotspots(
            bottom, top, target_peak_density=5.5, nx=20, ny=20
        )
        assert iterations >= 1
        combined = power_density_map(bottom, repaired, nx=20, ny=20)
        assert combined.max() <= 5.5 + 1e-6
        # Bottom die untouched.
        assert bottom.block("hot").power == 20.0

    def test_repair_noop_when_already_under_target(self):
        bottom, top = self._simple_pair()
        repaired, iterations = repair_hotspots(
            bottom, top, target_peak_density=100.0
        )
        assert iterations == 0
        assert repaired.block("warm").x == top.block("warm").x

    def test_repair_rejects_bad_target(self):
        bottom, top = self._simple_pair()
        with pytest.raises(FloorplanError):
            repair_hotspots(bottom, top, target_peak_density=0.0)

    def test_repair_gives_up_on_bottom_die_hotspot(self):
        # The hotspot comes entirely from the fixed bottom die: nothing
        # the top-die loop can do.
        bottom = Floorplan("b", 10, 10, [Block("hot", 0, 0, 1, 1, 30.0)])
        top = Floorplan("t", 10, 10, [Block("cool", 5, 5, 2, 2, 1.0)])
        repaired, _ = repair_hotspots(bottom, top, target_peak_density=10.0)
        combined = power_density_map(bottom, repaired)
        assert combined.max() > 10.0  # unfixable, returned best effort
