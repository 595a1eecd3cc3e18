"""Tests for the interval model, cycle simulator, and DVFS scaling."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiments import get_experiment
from repro.uarch.cycle import simulate_cycles
from repro.uarch.dvfs import (
    PERF_PER_FREQ,
    perf_3d_pct,
    power_3d_w,
    scale_operating_point,
    solve_same_perf,
    solve_same_power,
    solve_same_temp,
    table5_points,
)
from repro.uarch.interval import (
    cpi_columns,
    frequency_scaling_slope,
    geomean_ipc,
    speedup,
)
from repro.uarch.pipeline import (
    TABLE4_ELIMINATIONS,
    planar_pipeline,
    stacked_pipeline,
)
from repro.uarch.workloads import (
    SuiteColumns,
    make_profile,
    workload_suite,
)

#: sha256 over ``repr(_ipc(w, p)) + "\n"`` for every suite
#: profile (suite order) on each of :func:`_table4_pipelines`, recorded
#: from the per-profile scalar model the columnar one replaced.
IPC_SHA256 = "4372ae028eeb212b9eb60fb0e802b518d4a5067c5156ee4842b19661800e4722"


def _table4_pipelines():
    planar = planar_pipeline()
    return [planar, stacked_pipeline(planar)] + [
        stacked_pipeline(planar, {area: removed})
        for area, removed in TABLE4_ELIMINATIONS.items()
    ]


def _cpi_row(profile, pipeline):
    """The CPI adders of one profile: ``cpi_columns`` on a one-row suite."""
    return cpi_columns(SuiteColumns.of([profile]), pipeline)


def _ipc(profile, pipeline):
    return float(_cpi_row(profile, pipeline).ipc[0])


@pytest.fixture(scope="module")
def suite():
    return workload_suite()


class TestIntervalModel:
    def test_cpi_components_positive(self):
        profile = make_profile("specint", 0)
        row = _cpi_row(profile, planar_pipeline())
        assert row.base[0] > 0
        assert row.branch[0] > 0
        assert row.total_cpi[0] > row.base[0]
        assert row.ipc[0] == pytest.approx(1 / row.total_cpi[0])

    def test_ipc_in_physical_range(self, suite):
        for profile in suite[:50]:
            ipc = _ipc(profile, planar_pipeline())
            assert 0.1 < ipc < 3.6

    def test_shorter_pipeline_is_faster(self, suite):
        planar = planar_pipeline()
        stacked = stacked_pipeline(planar)
        for profile in suite[:25]:
            assert _ipc(profile, stacked) > _ipc(profile, planar)

    def test_total_gain_near_15_percent(self, suite):
        gain = speedup(suite, planar_pipeline(), stacked_pipeline()) - 1
        assert 0.13 <= gain <= 0.17  # paper: ~15%

    def test_table4_row_gains(self, suite):
        # Measured per-row gains must land near the published column.
        targets = {
            "front_end": 0.2, "trace_cache": 0.33, "rename_alloc": 0.66,
            "fp_wire": 4.0, "int_rf_read": 0.5, "data_cache_read": 1.5,
            "instruction_loop": 1.0, "retire_dealloc": 1.0,
            "fp_load": 2.0, "store_lifetime": 3.0,
        }
        planar = planar_pipeline()
        for area, removed in TABLE4_ELIMINATIONS.items():
            partial = stacked_pipeline(planar, {area: removed})
            gain = 100 * (speedup(suite, planar, partial) - 1)
            assert gain == pytest.approx(targets[area], abs=0.35), area

    def test_fp_row_helps_fp_workloads_most(self):
        planar = planar_pipeline()
        partial = stacked_pipeline(planar, {"fp_wire": 2})
        fp_profile = make_profile("specfp", 1)
        int_profile = make_profile("specint", 1)
        fp_gain = _ipc(fp_profile, partial) / _ipc(fp_profile, planar)
        int_gain = _ipc(int_profile, partial) / _ipc(int_profile, planar)
        assert fp_gain > int_gain

    def test_frequency_slope_near_082(self, suite):
        # Table 5: "0.82% performance for 1% frequency".
        slope = frequency_scaling_slope(suite, planar_pipeline())
        assert slope == pytest.approx(0.82, abs=0.05)

    def test_geomean_rejects_empty(self):
        with pytest.raises(ValueError, match="empty workload suite"):
            geomean_ipc([], planar_pipeline())
        with pytest.raises(ValueError, match="empty workload suite"):
            geomean_ipc(SuiteColumns.of([]), planar_pipeline())


class TestBitIdentity:
    """Values recorded from the per-profile scalar model before the
    columnar rewrite, compared with ``==``: the columnar evaluation must
    reproduce them to the last bit."""

    def test_per_profile_ipc_digest(self, suite):
        digest = hashlib.sha256()
        for pipeline in _table4_pipelines():
            for profile in suite:
                ipc = _ipc(profile, pipeline)
                digest.update((repr(ipc) + "\n").encode())
        assert digest.hexdigest() == IPC_SHA256

    def test_table4_result(self):
        result = get_experiment("table-4").run()
        assert result["total_gain_pct"] == 15.279035955049292
        assert result["stages_eliminated_pct"] == 27.419354838709676
        rows = result["per_row_gains_pct"]
        assert rows["fp_wire"] == 3.745236711701838
        assert rows["store_lifetime"] == 2.8641029595241507

    def test_frequency_scaling_slope(self, suite):
        slope = frequency_scaling_slope(suite, planar_pipeline())
        assert slope == 0.8327577132409811

    def test_columns_and_profiles_agree(self, suite):
        columns = SuiteColumns.of(suite)
        assert len(columns) == len(suite)
        for pipeline in _table4_pipelines()[:2]:
            assert geomean_ipc(columns, pipeline) == geomean_ipc(
                suite, pipeline
            )


class TestSuiteMemo:
    def test_mutating_returned_suite_does_not_leak(self):
        expected = list(workload_suite())
        first = workload_suite()
        first.append(first[0])
        assert workload_suite() == expected
        first.clear()
        assert workload_suite() == expected


class TestCycleSimulator:
    def test_3d_faster_than_planar(self):
        profile = make_profile("specint", 3)
        planar = simulate_cycles(planar_pipeline(), profile, 20_000)
        stacked = simulate_cycles(stacked_pipeline(), profile, 20_000)
        assert stacked.ipc > planar.ipc

    def test_gain_in_band_of_interval_model(self):
        # Cross-validation: averaged over several workloads, the cycle
        # model's 3D gain should land in the same band as the interval
        # model's (the two abstractions differ per-workload).
        planar_cfg, stacked_cfg = planar_pipeline(), stacked_pipeline()
        cycle_gains, interval_gains = [], []
        for category, index in (
            ("specint", 0), ("specfp", 0), ("productivity", 2),
            ("server", 1), ("multimedia", 0),
        ):
            profile = make_profile(category, index)
            cycle_gains.append(
                simulate_cycles(stacked_cfg, profile, 30_000).ipc
                / simulate_cycles(planar_cfg, profile, 30_000).ipc
                - 1
            )
            interval_gains.append(
                _ipc(profile, stacked_cfg)
                / _ipc(profile, planar_cfg)
                - 1
            )
            # Both models must agree 3D wins on every workload.
            assert cycle_gains[-1] > 0
            assert interval_gains[-1] > 0
        cycle_mean = sum(cycle_gains) / len(cycle_gains)
        interval_mean = sum(interval_gains) / len(interval_gains)
        assert cycle_mean == pytest.approx(interval_mean, abs=0.08)

    def test_deterministic(self):
        profile = make_profile("server", 0)
        a = simulate_cycles(planar_pipeline(), profile, 5_000, seed=3)
        b = simulate_cycles(planar_pipeline(), profile, 5_000, seed=3)
        assert a == b

    def test_counts_events(self):
        profile = make_profile("specint", 0)
        result = simulate_cycles(planar_pipeline(), profile, 20_000)
        assert result.mispredicts > 0
        assert result.l1_misses > 0
        assert result.instructions == 20_000

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            simulate_cycles(planar_pipeline(), make_profile("specint", 0), 0)

    def test_branchy_workload_slower(self):
        import dataclasses

        profile = make_profile("specint", 5)
        branchy = dataclasses.replace(profile, mispredict_rate=0.15)
        smooth = dataclasses.replace(profile, mispredict_rate=0.001)
        slow = simulate_cycles(planar_pipeline(), branchy, 20_000)
        fast = simulate_cycles(planar_pipeline(), smooth, 20_000)
        assert fast.ipc > slow.ipc


class TestDvfs:
    def test_power_model_is_v2f(self):
        # P = 147 * 0.85 * V^2 * f.
        assert power_3d_w(1.0, 1.0) == pytest.approx(124.95)
        assert power_3d_w(0.9, 0.9) == pytest.approx(124.95 * 0.9**3)

    def test_perf_model_additive(self):
        assert perf_3d_pct(1.0) == pytest.approx(115.0)
        assert perf_3d_pct(1.18) == pytest.approx(115 + 18 * PERF_PER_FREQ)

    def test_same_power_frequency(self):
        # 125 W * f = 147 W -> f ~ 1.18 (Table 5 row 2).
        assert solve_same_power() == pytest.approx(1.176, abs=0.01)

    def test_same_perf_frequency(self):
        # 15% / 0.82 ~ 18.3% frequency reduction -> Vcc ~ 0.82.
        assert solve_same_perf() == pytest.approx(0.817, abs=0.01)

    def test_table5_published_rows(self):
        rows = {p.name: p for p in table5_points()}
        assert rows["Baseline"].power_w == pytest.approx(147.0)
        assert rows["Same Freq."].power_w == pytest.approx(124.95)
        assert rows["Same Freq."].perf_pct == pytest.approx(115.0)
        # Same Temp at the paper's published 0.92 Vcc.
        assert rows["Same Temp"].power_w == pytest.approx(97.3, abs=0.5)
        assert rows["Same Temp"].perf_pct == pytest.approx(108.4, abs=0.5)
        # Same Perf: ~46% power (paper 68.2 W).
        assert rows["Same Perf."].power_w == pytest.approx(68.2, abs=1.0)
        assert rows["Same Perf."].perf_pct == pytest.approx(100.0, abs=0.3)

    def test_headline_same_temp_tradeoff(self):
        # "a simultaneous 34% power reduction and 8% performance
        # improvement" at neutral thermals.
        rows = {p.name: p for p in table5_points()}
        same_temp = rows["Same Temp"]
        assert 100 - same_temp.power_pct == pytest.approx(34.0, abs=1.0)
        assert same_temp.perf_pct - 100 == pytest.approx(8.4, abs=0.8)

    def test_solve_same_temp_with_linear_model(self):
        # With T = 40 + 0.5 * P the target is analytic.
        thermal = lambda p: 40.0 + 0.5 * p  # noqa: E731
        target = thermal(110.0)
        vcc = solve_same_temp(thermal, target)
        assert power_3d_w(vcc, vcc) == pytest.approx(110.0, rel=1e-3)

    def test_solve_same_temp_unbracketed_raises(self):
        thermal = lambda p: 40.0 + 0.5 * p  # noqa: E731
        with pytest.raises(ValueError, match="not bracketed"):
            solve_same_temp(thermal, 1000.0)

    def test_temperatures_attached_when_thermal_given(self):
        thermal = lambda p: 40.0 + 0.5 * p  # noqa: E731
        rows = table5_points(thermal=thermal)
        for row in rows:
            assert row.temp_c is not None

    def test_scale_operating_point_validation(self):
        with pytest.raises(ValueError):
            power_3d_w(0.0, 1.0)
        with pytest.raises(ValueError):
            perf_3d_pct(-1.0)

    @given(
        vcc=st.floats(min_value=0.6, max_value=1.2),
    )
    @settings(max_examples=30, deadline=None)
    def test_power_monotone_in_vcc_property(self, vcc):
        assert power_3d_w(vcc + 0.01, vcc + 0.01) > power_3d_w(vcc, vcc)

    def test_scaling_point_is_consistent(self):
        point = scale_operating_point("x", 0.95, 0.95)
        assert point.power_pct == pytest.approx(
            100 * point.power_w / 147.0
        )
