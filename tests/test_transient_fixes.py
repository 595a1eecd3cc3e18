"""Pinning tests for the transient-solver bug sweep.

Three behaviors regressed or were ambiguous before this change:

* a duration that is not a whole number of dt steps silently truncated
  the run (duration 1.0 / dt 0.3 integrated only 0.9 s);
* ``time_to_fraction`` fired at t=0 on cooling transients;
* the power schedule was sampled at each step's *end* time, off by one
  step against the documented example.

Plus coverage for the per-(geometry, dt) backward-Euler LU cache:
hits, FIFO eviction across mixed-dt runs, the cold
``reuse_operator=False`` path leaving the cache untouched, and the
unpivoted symmetric-mode factor against a partial-pivoting reference.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.coupled import build_coupled_stack
from repro.floorplan import core2duo_floorplan
from repro.resilience.errors import SolverDivergenceError
from repro.thermal import SolverConfig, solve_transient
from repro.thermal.solver import (
    _TRANSIENT_LU_MAX,
    assemble_system,
    clear_operator_cache,
)
from repro.thermal.stack import DieSpec, build_stack
from repro.thermal.transient import BackwardEuler

FAST = SolverConfig(nx=12, ny=12)


@pytest.fixture(scope="module")
def stack():
    return build_stack([DieSpec(core2duo_floorplan())])


class TestDurationDivisibility:
    def test_non_divisible_duration_rejected(self, stack):
        with pytest.raises(ValueError, match="does not divide"):
            solve_transient(stack, FAST, duration_s=1.0, dt_s=0.3)

    def test_divisible_duration_runs_to_the_end(self, stack):
        run = solve_transient(stack, FAST, duration_s=1.2, dt_s=0.3)
        assert run.times_s[-1] == pytest.approx(1.2)
        assert len(run.times_s) == 5  # t=0 plus 4 steps

    def test_float_noise_tolerated(self, stack):
        # 0.1 * 3 != 0.3 exactly in floats; the divisibility check must
        # accept it anyway.
        run = solve_transient(stack, FAST, duration_s=0.3, dt_s=0.1)
        assert len(run.times_s) == 4


class TestCoolingTimeToFraction:
    def test_cooling_transient_fraction(self, stack):
        # Start hot with the power off: the peak falls toward ambient.
        system = assemble_system(stack, FAST)
        hot = np.full(system.matrix.shape[0], FAST.ambient_c + 50.0)
        run = solve_transient(
            stack,
            FAST,
            duration_s=30.0,
            dt_s=0.5,
            initial=hot,
            power_schedule=lambda t: 0.0,
        )
        assert run.peak_rise < 0
        t63 = run.time_to_fraction(0.632)
        # Before the fix this returned times_s[0] == 0.0 immediately:
        # with a negative rise the target sits *below* the start, which
        # "peak >= target" satisfies at t=0.
        assert t63 > 0
        target = run.peak_c[0] + 0.632 * run.peak_rise
        idx = run.times_s.index(t63)
        assert run.peak_c[idx] <= target
        assert run.time_to_fraction(0.3) <= run.time_to_fraction(0.9)

    def test_heating_behavior_unchanged(self, stack):
        run = solve_transient(stack, FAST, duration_s=20.0, dt_s=0.5)
        assert run.peak_rise > 0
        assert 0 < run.time_to_fraction(0.5) <= run.time_to_fraction(0.95)


class TestScheduleSamplingConvention:
    def test_factor_sampled_at_step_start(self, stack):
        # Power on only for the first step: [0, 1).  Start-of-step
        # sampling heats exactly one step then cools; the old
        # end-of-step sampling would have seen factor 0 at t=1.0 and
        # never heated at all.
        run = solve_transient(
            stack,
            FAST,
            duration_s=2.0,
            dt_s=1.0,
            power_schedule=lambda t: 0.0 if t >= 1.0 else 1.0,
        )
        assert run.peak_c[1] > FAST.ambient_c + 1.0
        assert run.peak_c[2] < run.peak_c[1]

    def test_docstring_example_boundary(self, stack):
        # The documented DVFS example: the 0.66 factor lands on the step
        # *beginning* at t=5, so the peak still rises through step 5 and
        # starts falling on the next one.
        run = solve_transient(
            stack,
            FAST,
            duration_s=8.0,
            dt_s=1.0,
            power_schedule=lambda t: 0.66 if t >= 5 else 1.0,
        )
        idx5 = run.times_s.index(5.0)
        assert run.peak_c[idx5] > run.peak_c[idx5 - 1]
        assert run.peak_c[idx5 + 1] < run.peak_c[idx5]


class TestTransientLuCache:
    def test_hit_evict_and_cold_path(self, stack):
        clear_operator_cache()
        solve_transient(stack, FAST, duration_s=0.2, dt_s=0.1)
        operator = assemble_system(stack, FAST).operator
        assert operator is not None
        assert 0.1 in operator.transient_lus
        first_lu = operator.transient_lus[0.1]

        # Re-running with the same dt reuses the factorization object.
        solve_transient(stack, FAST, duration_s=0.4, dt_s=0.1)
        assert operator.transient_lus[0.1] is first_lu

        # Mixed dts fill the per-operator cache; beyond the cap the
        # oldest entry (FIFO) is evicted.
        for dt in (0.05, 0.02, 0.5, 1.0):
            solve_transient(stack, FAST, duration_s=2 * dt, dt_s=dt)
        assert len(operator.transient_lus) == _TRANSIENT_LU_MAX
        assert 0.1 not in operator.transient_lus
        assert set(operator.transient_lus) == {0.05, 0.02, 0.5, 1.0}

        # The cold benchmark path must not touch the cached operator.
        before = dict(operator.transient_lus)
        solve_transient(
            stack, FAST, duration_s=0.3, dt_s=0.15, reuse_operator=False
        )
        assert operator.transient_lus == before

    def test_cold_and_warm_paths_agree(self, stack):
        clear_operator_cache()
        warm = solve_transient(stack, FAST, duration_s=1.0, dt_s=0.25)
        cold = solve_transient(
            stack, FAST, duration_s=1.0, dt_s=0.25, reuse_operator=False
        )
        assert warm.peak_c == cold.peak_c


class TestMultiColumnSolve:
    """The coupled loop steps P policies with one P-column solve; its
    exactness rests on SuperLU solving each column of a block
    bit-identically to solving that column alone."""

    def test_columns_bit_identical_to_single_solves(self):
        stack = build_coupled_stack()[0]
        system = assemble_system(stack, SolverConfig(nx=20, ny=20))
        lu = BackwardEuler(system, 0.5).lu
        mass_over_dt = system.mass / 0.5
        base = np.full(system.matrix.shape[0], FAST.ambient_c)
        B = np.column_stack([
            system.boundary_rhs + f * system.power_rhs + mass_over_dt * base
            for f in (0.4, 0.7, 1.0, 1.3)
        ])
        X = lu.solve(B)
        for j in range(B.shape[1]):
            assert np.array_equal(X[:, j], lu.solve(B[:, j]))


class TestUnpivotedFactor:
    """K + M/dt is SPD: the cached factor pivots on the diagonal only,
    and tracks a partial-pivoting factor of the same matrix."""

    STEPS = 120
    DT_S = 0.5

    @pytest.mark.parametrize("geometry", ["coupled", "core2duo"])
    def test_matches_partial_pivoting_reference(self, stack, geometry):
        if geometry == "coupled":
            stack = build_coupled_stack()[0]
        clear_operator_cache()
        run = solve_transient(
            stack, FAST, duration_s=self.STEPS * self.DT_S, dt_s=self.DT_S
        )
        system = assemble_system(stack, FAST)
        lu = system.operator.transient_lus[self.DT_S]
        assert np.array_equal(lu.perm_r, lu.perm_c)

        mass_over_dt = system.mass / self.DT_S
        reference = spla.splu(
            (system.matrix + sp.diags(mass_over_dt)).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
        )
        temperature = np.full(system.matrix.shape[0], FAST.ambient_c)
        peaks = [system.solution_from(temperature).peak_temperature()]
        for _ in range(self.STEPS):
            temperature = reference.solve(
                system.rhs + mass_over_dt * temperature
            )
            peaks.append(system.solution_from(temperature).peak_temperature())
        assert len(run.peak_c) == self.STEPS + 1
        assert np.max(np.abs(np.subtract(run.peak_c, peaks))) <= 1e-9


class TestTransientResilience:
    def test_nonfinite_initial_raises(self, stack):
        n = assemble_system(stack, FAST).matrix.shape[0]
        with pytest.raises(SolverDivergenceError, match="non-finite"):
            solve_transient(
                stack, FAST, duration_s=0.2, dt_s=0.1,
                initial=np.full(n, np.nan),
            )
