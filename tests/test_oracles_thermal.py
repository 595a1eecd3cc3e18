"""Thermal oracle integration + operator-cache adversarial lifecycle.

The operator cache serves every steady and transient solve; these tests
prove a cached operator survives hostile lifecycles bit-identically
(clear between transients, LRU eviction under a live handle, cache bypass)
and that in-memory corruption of a cached entry is detected, not
propagated.
"""

import numpy as np
import pytest

from repro.floorplan import core2duo_floorplan, stacked_cache_die
from repro.oracles.config import get_oracle_config, oracle_mode, set_oracle_mode
from repro.oracles.report import oracle_report, reset_oracles
from repro.thermal import solver as thermal_solver
from repro.thermal.solver import (
    SolverConfig,
    assemble_system,
    clear_operator_cache,
    operator_cache_stats,
    solve_steady_state,
)
from repro.thermal.stack import build_3d_stack, build_planar_stack
from repro.thermal.transient import solve_transient


@pytest.fixture(autouse=True)
def _clean_oracles():
    previous = get_oracle_config()
    reset_oracles()
    clear_operator_cache()
    yield
    set_oracle_mode(previous)
    reset_oracles()
    clear_operator_cache()


@pytest.fixture(scope="module")
def stack():
    return build_planar_stack(core2duo_floorplan())


CFG = SolverConfig(nx=16, ny=16)


class TestSteadyOracles:
    def test_clean_solve_records_checks_no_violations(self, stack):
        with oracle_mode("sample"):
            solution = solve_steady_state(stack, CFG)
        report = oracle_report()
        assert report.clean
        for oracle in ("thermal.residual", "thermal.conservation",
                       "thermal.bounds"):
            assert report.checks.get(oracle, 0) >= 1, report.checks
        assert not solution.degraded

    def test_armed_corruption_detected_and_result_unaffected(self, stack):
        with oracle_mode("sample"):
            clean = solve_steady_state(stack, CFG)
            thermal_solver.arm_operator_corruption(
                lambda op: op.matrix.data.__setitem__(0, 12345.0)
            )
            # Cache hit consumes the hook, the crc recheck catches the
            # corruption, and the entry is rebuilt from scratch.
            after = solve_steady_state(stack, CFG)
        report = oracle_report()
        assert any(v.oracle == "thermal.operator-crc"
                   for v in report.violations)
        assert any(v.action == "quarantined-entry"
                   for v in report.violations)
        np.testing.assert_array_equal(after.temperature, clean.temperature)

    def test_off_mode_skips_thermal_checks(self, stack):
        with oracle_mode("off"):
            solve_steady_state(stack, CFG)
        assert oracle_report().total_checks == 0


class TestOperatorLifecycle:
    """Adversarial cache lifecycles must stay bit-identical."""

    def test_clear_cache_between_transients_is_exact(self, stack):
        with oracle_mode("sample"):
            first = solve_transient(stack, CFG, duration_s=1.0, dt_s=0.1)
            # The cached operator (and its transient factorization)
            # vanishes; the rerun must rebuild it and match exactly.
            clear_operator_cache()
            again = solve_transient(stack, CFG, duration_s=1.0, dt_s=0.1)
        assert again.times_s == first.times_s
        assert again.peak_c == first.peak_c
        assert np.array_equal(again.final.temperature, first.final.temperature)
        assert oracle_report().clean

    def test_lru_eviction_under_live_handle(self, stack):
        with oracle_mode("sample"):
            held = assemble_system(stack, CFG)
            # Flood the LRU with distinct geometries until the held
            # entry is evicted.
            for nx in range(8, 8 + thermal_solver._OPERATOR_CACHE_MAX + 1):
                assemble_system(stack, SolverConfig(nx=nx, ny=nx))
            assert (operator_cache_stats()["size"]
                    <= operator_cache_stats()["max_size"])
            # The held handle stays fully usable after eviction, and a
            # re-assembly (now a miss) reproduces it bit for bit.
            rebuilt = assemble_system(stack, CFG)
        assert (held.matrix != rebuilt.matrix).nnz == 0
        np.testing.assert_array_equal(held.rhs, rebuilt.rhs)
        np.testing.assert_array_equal(held.mass, rebuilt.mass)
        assert oracle_report().clean

    def test_reuse_operator_false_bypasses_cache_bit_identically(self, stack):
        with oracle_mode("sample"):
            cached = assemble_system(stack, CFG)      # miss: populates
            cached2 = assemble_system(stack, CFG)     # hit: verified
            cold = assemble_system(stack, CFG, reuse_operator=False)
        stats = operator_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert (cold.matrix != cached.matrix).nnz == 0
        np.testing.assert_array_equal(cold.rhs, cached.rhs)
        np.testing.assert_array_equal(cold.rhs, cached2.rhs)
        assert oracle_report().clean


class TestTransientOracles:
    def test_transient_final_field_bounds_checked(self, stack):
        with oracle_mode("sample"):
            solve_transient(stack, CFG, duration_s=0.3, dt_s=0.1)
        report = oracle_report()
        assert report.clean
        assert report.checks.get("thermal.transient-bounds", 0) >= 1

    def test_stacked_config_clean_under_strict(self):
        base = core2duo_floorplan()
        cache = stacked_cache_die("sram-8mb", base)
        stacked = build_3d_stack(base, cache, die2_metal="cu")
        with oracle_mode("strict"):
            solve_steady_state(stacked, CFG)
            solve_steady_state(stacked, CFG)  # hit: crc checked every reuse
        report = oracle_report()
        assert report.clean
        assert report.checks.get("thermal.operator-crc", 0) >= 1
