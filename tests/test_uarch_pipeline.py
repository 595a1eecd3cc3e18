"""Tests for the pipeline model, workload suite, and power roll-up."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.pipeline import (
    PipelineConfig,
    TABLE4_ELIMINATIONS,
    planar_pipeline,
    stacked_pipeline,
    stages_eliminated_fraction,
)
from repro.uarch.power import (
    PowerBreakdown,
    planar_power_breakdown,
    power_reduction_fraction,
    stacked_power_breakdown,
    stacked_power_w,
)
from repro.uarch.workloads import (
    CATEGORY_COUNTS,
    make_profile,
    workload_suite,
)


def _by_category():
    """The suite grouped by its profiles' categories."""
    grouped = {}
    for profile in workload_suite():
        grouped.setdefault(profile.category, []).append(profile)
    return grouped


class TestPipelineConfig:
    def test_mispredict_penalty_exceeds_30(self):
        # "a branch miss-prediction penalty of more than 30 clock cycles"
        assert planar_pipeline().mispredict_penalty > 30

    def test_total_stages_exceed_mispredict_clocks(self):
        # "The number of pipe stages ... is much greater than the
        # miss-prediction clocks."
        planar = planar_pipeline()
        assert planar.total_stages > planar.mispredict_penalty

    def test_fp_latency_includes_wire(self):
        planar = planar_pipeline()
        assert planar.fp_latency == planar.exec_fp_latency + 2

    def test_rejects_invalid_stages(self):
        with pytest.raises(ValueError):
            PipelineConfig(front_end=0)
        with pytest.raises(ValueError):
            PipelineConfig(fp_wire_latency=-1)

    def test_stage_counts_cover_table4(self):
        counts = planar_pipeline().stage_counts()
        assert set(counts) == set(TABLE4_ELIMINATIONS)


class TestStageElimination:
    def test_full_3d_removes_about_25_percent(self):
        planar = planar_pipeline()
        stacked = stacked_pipeline(planar)
        fraction = stages_eliminated_fraction(planar, stacked)
        assert 0.22 <= fraction <= 0.30  # paper: ~25%

    def test_table4_fractions_row_by_row(self):
        # The published "% of Stages Eliminated" column.
        planar = planar_pipeline()
        expected = {
            "front_end": 0.125, "trace_cache": 0.20, "rename_alloc": 0.25,
            "int_rf_read": 0.25, "data_cache_read": 0.25,
            "instruction_loop": 1 / 6, "retire_dealloc": 0.20,
            "fp_load": 5 / 14, "store_lifetime": 0.30,
        }
        counts = planar.stage_counts()
        for area, fraction in expected.items():
            removed = TABLE4_ELIMINATIONS[area]
            assert removed / counts[area] == pytest.approx(fraction, rel=0.05)

    def test_fp_wire_fully_eliminated(self):
        stacked = stacked_pipeline()
        assert stacked.fp_wire_latency == 0

    def test_partial_elimination(self):
        planar = planar_pipeline()
        partial = stacked_pipeline(planar, {"data_cache_read": 1})
        assert partial.data_cache_read == planar.data_cache_read - 1
        assert partial.front_end == planar.front_end  # untouched

    def test_mispredict_penalty_shrinks(self):
        planar = planar_pipeline()
        stacked = stacked_pipeline(planar)
        assert stacked.mispredict_penalty < planar.mispredict_penalty

    def test_unknown_area_raises(self):
        with pytest.raises(KeyError):
            stacked_pipeline(areas={"bogus": 1})

    def test_cannot_remove_all_stages(self):
        with pytest.raises(ValueError):
            stacked_pipeline(areas={"trace_cache": 5})


class TestWorkloadSuite:
    def test_suite_exceeds_650(self):
        # "over 650 single thread benchmark traces"
        assert len(workload_suite()) > 650

    def test_all_eight_categories(self):
        categories = _by_category()
        assert set(categories) == {
            "specint", "specfp", "kernels", "multimedia",
            "internet", "productivity", "server", "workstation",
        }
        for name, count in CATEGORY_COUNTS.items():
            assert len(categories[name]) == count

    def test_deterministic(self):
        assert workload_suite(seed=1) == workload_suite(seed=1)
        assert workload_suite(seed=1) != workload_suite(seed=2)

    def test_category_character(self):
        # SPECFP must be FP-heavy relative to SPECINT, and SPECINT
        # branch-heavy relative to SPECFP (category archetypes).
        categories = _by_category()

        def mean(ws, attr):
            return sum(getattr(w, attr) for w in ws) / len(ws)

        assert mean(categories["specfp"], "fp_freq") > 5 * mean(
            categories["specint"], "fp_freq"
        )
        assert mean(categories["specint"], "branch_freq") > 2 * mean(
            categories["specfp"], "branch_freq"
        )

    def test_unknown_category_raises(self):
        with pytest.raises(KeyError):
            make_profile("games", 0)

    @given(index=st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_profiles_are_physical(self, index):
        profile = make_profile("workstation", index)
        assert 0 < profile.branch_freq < 1
        assert profile.mispredict_rate <= 0.25
        assert profile.load_freq + profile.store_freq < 1
        assert 1.0 <= profile.base_ilp <= 4.0


class TestPowerRollup:
    def test_planar_total_is_147(self):
        assert planar_power_breakdown().total == pytest.approx(147.0)

    def test_3d_power_near_125(self):
        # Paper: "3D" column of Table 5 at same frequency = 125 W.
        assert stacked_power_w() == pytest.approx(125.0, abs=1.0)

    def test_reduction_is_15_percent(self):
        assert power_reduction_fraction() == pytest.approx(0.15, abs=0.01)

    def test_repeaters_halved(self):
        planar = planar_power_breakdown()
        stacked = stacked_power_breakdown(planar)
        assert stacked.repeaters == pytest.approx(planar.repeaters / 2)

    def test_logic_and_leakage_unchanged(self):
        planar = planar_power_breakdown()
        stacked = stacked_power_breakdown(planar)
        assert stacked.logic == planar.logic
        assert stacked.leakage == planar.leakage

    def test_latches_track_stage_elimination(self):
        planar = planar_power_breakdown()
        stacked = stacked_power_breakdown(planar)
        fraction = stages_eliminated_fraction(
            planar_pipeline(), stacked_pipeline()
        )
        assert stacked.latches == pytest.approx(
            planar.latches * (1 - fraction)
        )

    def test_breakdown_rejects_negative(self):
        with pytest.raises(ValueError):
            PowerBreakdown(-1, 0, 0, 0, 0)

    def test_scales_with_total(self):
        assert planar_power_breakdown(100.0).total == pytest.approx(100.0)
