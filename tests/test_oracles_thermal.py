"""Thermal oracle integration + operator-cache adversarial lifecycle.

The operator cache serves every steady and transient solve; these tests
prove a cached operator survives hostile lifecycles bit-identically
(clear between transients, LRU eviction under a live handle, cache bypass)
and that in-memory corruption of a cached entry is detected, not
propagated.  A steady solve the residual oracle rejects reaches every
reader of the oracle scoreboard.
"""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.floorplan import core2duo_floorplan, stacked_cache_die
from repro.oracles.config import get_oracle_config, oracle_mode, set_oracle_mode
from repro.oracles.report import oracle_report, reset_oracles
from repro.runner.scheduler import CampaignConfig, run_campaign
from repro.runner.tasks import CampaignTask
from repro.thermal import solver as thermal_solver
from repro.thermal.solver import (
    SolverConfig,
    assemble_system,
    clear_operator_cache,
    operator_cache_stats,
    solve_steady_state,
)
from repro.thermal.stack import DieSpec, build_stack
from repro.thermal.transient import check_transient_bounds, solve_transient


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
    return build_stack([DieSpec(core2duo_floorplan())])


CFG = SolverConfig(nx=16, ny=16)


class TestSteadyOracles:
    def test_clean_solve_records_checks_no_violations(self, stack):
        with oracle_mode("sample"):
            solve_steady_state(stack, CFG)
        report = oracle_report()
        assert report.clean
        for oracle in ("thermal.residual", "thermal.conservation",
                       "thermal.bounds"):
            assert report.checks.get(oracle, 0) >= 1, report.checks

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



class TestSteadyOracleTrip:
    """A zero residual tolerance trips ``thermal.steady`` on every real
    solve; the scoreboard alone carries the verdict."""

    @pytest.fixture(autouse=True)
    def _zero_residual_tolerance(self, monkeypatch):
        monkeypatch.setattr(thermal_solver, "RESIDUAL_TOL", 0.0)

    def test_violation_on_scoreboard(self, stack):
        with oracle_mode("sample"):
            solve_steady_state(stack, CFG)
        tripped = [v for v in oracle_report().violations
                   if v.oracle == "thermal.steady"]
        assert tripped and "residual" in tripped[0].detail

    def test_run_exits_degraded(self, capsys):
        assert cli_main(["run", "figure-6", "--nx", "10"]) == 3

    def test_inproc_campaign_reports_degraded(self, tmp_path):
        report = run_campaign(
            [CampaignTask(task_id="figure-6", experiment_id="figure-6",
                          kwargs={"nx": 10})],
            CampaignConfig(backend="inproc", poll_interval_s=0.001,
                           journal_path=str(tmp_path / "journal.jsonl")),
        )
        assert report.counts["ok"] == 1
        assert report.oracle_violations >= 1
        assert report.degraded

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

    def test_field_below_floor_reaches_the_scoreboard(self):
        field = np.full((2, 3, 3), 45.0)
        field[1, 1, 1] = 39.0
        with oracle_mode("sample"):
            check_transient_bounds(field, 40.0)
        report = oracle_report()
        assert report.checks == {"thermal.transient-bounds": 1}
        [violation] = report.violations
        assert violation.oracle == "thermal.transient-bounds"
        assert violation.engine == "thermal"
        assert "39.000 C below ambient 40.000 C" in violation.detail

    def test_stacked_config_clean_under_strict(self):
        base = core2duo_floorplan()
        cache = stacked_cache_die("sram-8mb", base)
        stacked = build_stack([DieSpec(base), DieSpec(cache)])
        with oracle_mode("strict"):
            solve_steady_state(stacked, CFG)
            solve_steady_state(stacked, CFG)  # hit: crc checked every reuse
        report = oracle_report()
        assert report.clean
        assert report.checks.get("thermal.operator-crc", 0) >= 1
