"""Physics and regression tests for the finite-volume thermal solver."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.floorplan import Floorplan, core2duo_floorplan, stacked_cache_die
from repro.floorplan.blocks import uniform_floorplan
from repro.floorplan.pentium4 import pentium4_3d_floorplans
from repro.oracles.config import oracle_mode
from repro.oracles.report import oracle_report, reset_oracles
from repro.resilience.errors import GuardViolation, SolverDivergenceError
from repro.thermal import solver as solver_module
from repro.thermal.materials import DOMAIN_SIZE_M, get_material
from repro.thermal.solver import (
    SolverConfig,
    assemble_system,
    cell_widths,
    clear_operator_cache,
    geometry_key,
    operator_cache_stats,
    relative_residual,
    solve_steady_state,
)
from repro.thermal.stack import (
    Layer,
    ThermalStack,
    DieSpec,
    build_stack,
)

FAST = SolverConfig(nx=24, ny=24)

UM = 1e-6
MM = 1e-3


def _bare_die_stack(power_w=60.0):
    """A minimal stack whose BOUNDARY layers are two-region (die material
    inside the footprint, epoxy fill outside) — the geometry where the
    old uniform-conductivity conservation check was wrong."""
    die = uniform_floorplan("bare", 10.0, 10.0, power_w)
    epoxy = get_material("epoxy-fillet")
    layers = [
        Layer("bulk-si-1", 750.0 * UM, get_material("bulk-si"), epoxy,
              divisions=2),
        Layer("metal-1", 12.0 * UM, get_material("cu-metal"), epoxy,
              power_plan=die),
        Layer("package", 1.2 * MM, get_material("package"),
              get_material("package")),
    ]
    return ThermalStack("bare die", 10.0 * MM, 10.0 * MM, layers)


class TestSolverPhysics:
    def test_energy_conservation(self, planar_solution):
        # Heat leaving through the boundaries equals the injected power.
        # The per-cell boundary conductances replicate the assembled
        # Robin terms exactly, so this closes to solver precision.
        out = planar_solution.boundary_heat_flow()
        assert out == pytest.approx(planar_solution.stack.total_power, rel=1e-9)

    def test_energy_conservation_3d(self, stacked_solution):
        out = stacked_solution.boundary_heat_flow()
        assert out == pytest.approx(
            stacked_solution.stack.total_power, rel=1e-9
        )

    def test_energy_conservation_two_region_boundary(self):
        """Conservation must close even when a two-region layer forms a
        boundary face (regression: the check used the in-die conductivity
        across the whole face, overstating the off-die flow ~4x here)."""
        solution = solve_steady_state(_bare_die_stack(), FAST)
        out = solution.boundary_heat_flow()
        assert out == pytest.approx(solution.stack.total_power, rel=1e-9)

    def test_per_face_breakdown_sums_to_total(self, planar_solution):
        faces = planar_solution.boundary_heat_flow(per_face=True)
        assert set(faces) == {"heatsink", "motherboard"}
        assert faces["heatsink"] + faces["motherboard"] == pytest.approx(
            planar_solution.boundary_heat_flow(), rel=1e-12
        )

    def test_heatsink_face_dominates(self, planar_solution):
        # The package exists to push heat out through the sink: the
        # forced-air face must carry the overwhelming share.
        faces = planar_solution.boundary_heat_flow(per_face=True)
        assert faces["heatsink"] > 50 * faces["motherboard"]
        assert faces["motherboard"] > 0  # but the board path is real

    def test_flipped_stack_mirrors_the_field(self):
        """Reversing the layer order while swapping the boundary h's is
        the same physical problem upside down: the temperature field must
        mirror in z (and conservation must still close on the flipped
        stack, whose two-region die layers now face the other boundary)."""
        stack = _bare_die_stack()
        flipped = ThermalStack(
            "bare die flipped",
            stack.die_width_m,
            stack.die_height_m,
            list(reversed(stack.layers)),
            stack.domain_size_m,
        )
        config = SolverConfig(
            nx=24, ny=24, heatsink_h=9000.0, motherboard_h=50.0
        )
        mirror_config = SolverConfig(
            nx=24, ny=24, heatsink_h=50.0, motherboard_h=9000.0
        )
        upright = solve_steady_state(stack, config)
        mirrored = solve_steady_state(flipped, mirror_config)
        assert np.allclose(
            upright.temperature,
            mirrored.temperature[::-1],
            rtol=1e-9,
            atol=1e-9,
        )
        out = mirrored.boundary_heat_flow()
        assert out == pytest.approx(flipped.total_power, rel=1e-9)

    def test_maximum_principle(self, planar_solution):
        # With heat sources, no temperature is below ambient.
        assert planar_solution.temperature.min() >= (
            planar_solution.config.ambient_c - 1e-6
        )

    def test_zero_power_gives_ambient_everywhere(self):
        die = uniform_floorplan("cold", 10.0, 10.0, 0.0)
        solution = solve_steady_state(build_stack([DieSpec(die)]), FAST)
        assert np.allclose(solution.temperature, FAST.ambient_c, atol=1e-8)

    def test_linearity_in_power(self):
        # Steady conduction is linear: doubling power doubles the rise.
        die1 = uniform_floorplan("u", 10.0, 10.0, 50.0)
        die2 = uniform_floorplan("u", 10.0, 10.0, 100.0)
        sol1 = solve_steady_state(build_stack([DieSpec(die1)]), FAST)
        sol2 = solve_steady_state(build_stack([DieSpec(die2)]), FAST)
        rise1 = sol1.peak_temperature() - FAST.ambient_c
        rise2 = sol2.peak_temperature() - FAST.ambient_c
        assert rise2 == pytest.approx(2.0 * rise1, rel=1e-9)

    def test_symmetry_for_symmetric_power(self):
        # A centred uniform die must give a laterally symmetric field.
        # (Grid chosen so the rounded die region centres exactly; with
        # mismatched parity the half-cell offset breaks exact symmetry.)
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        config = SolverConfig(nx=25, ny=25)
        solution = solve_steady_state(build_stack([DieSpec(die)]), config)
        field = solution.temperature[0]  # heat-sink plane
        assert np.allclose(field, field[:, ::-1], rtol=1e-9)
        assert np.allclose(field, field[::-1, :], rtol=1e-9)

    def test_better_cooling_is_cooler(self):
        die = uniform_floorplan("u", 10.0, 10.0, 80.0)
        stack = build_stack([DieSpec(die)])
        weak = solve_steady_state(
            stack, SolverConfig(nx=24, ny=24, heatsink_h=2000.0)
        )
        strong = solve_steady_state(
            stack, SolverConfig(nx=24, ny=24, heatsink_h=8000.0)
        )
        assert strong.peak_temperature() < weak.peak_temperature()

    def test_hotspot_is_over_the_hot_block(self, planar_solution):
        # The hotspot must sit in a core, not in the (cool) L2 half.
        die_map = planar_solution.die_map("metal-1")
        j, i = np.unravel_index(np.argmax(die_map), die_map.shape)
        # Cores occupy the top half of the die (y > 6 mm).
        assert j >= die_map.shape[0] // 2

    def test_temperature_decreases_away_from_die(self, planar_solution):
        # The die runs hotter than the heat-sink top surface.
        die_peak = planar_solution.layer_peak("metal-1")
        sink = planar_solution.layer_temperature("heat-sink")[0].max()
        assert die_peak > sink

    @given(power=st.floats(min_value=1.0, max_value=200.0))
    @settings(max_examples=8, deadline=None)
    def test_rise_scales_linearly_property(self, power):
        die = uniform_floorplan("u", 10.0, 10.0, power)
        tiny = SolverConfig(nx=12, ny=12)
        solution = solve_steady_state(build_stack([DieSpec(die)]), tiny)
        rise = solution.peak_temperature() - tiny.ambient_c
        # Rise per watt is a constant of the geometry: 0.418-0.420 K/W
        # on every grid, the 4-cell die of nx=12 included, because the
        # modelled die is the true 10 mm die.
        assert rise / power == pytest.approx(0.419, rel=0.02)


class TestOperatorCache:
    """The assembled operator depends only on geometry, so solves that share a stack geometry must share one cached operator
    — with bit-identical results to a cold assembly."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        clear_operator_cache()
        yield
        clear_operator_cache()

    def test_cached_solve_is_bit_identical_to_cold(self):
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        stack = build_stack([DieSpec(die)])
        cold = solve_steady_state(stack, FAST)
        warm = solve_steady_state(stack, FAST)
        assert np.array_equal(cold.temperature, warm.temperature)
        stats = operator_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_power_plans_share_one_operator(self):
        # Same geometry, different power maps: one assembly, one hit —
        # and the very same matrix object on both systems.
        die1 = uniform_floorplan("a", 10.0, 10.0, 50.0)
        die2 = uniform_floorplan("b", 10.0, 10.0, 125.0)
        sys1 = assemble_system(build_stack([DieSpec(die1)]), FAST)
        sys2 = assemble_system(build_stack([DieSpec(die2)]), FAST)
        assert sys1.matrix is sys2.matrix
        assert not np.array_equal(sys1.rhs, sys2.rhs)
        stats = operator_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_geometry_key_ignores_power(self):
        die1 = uniform_floorplan("a", 10.0, 10.0, 50.0)
        die2 = uniform_floorplan("b", 10.0, 10.0, 125.0)
        assert geometry_key(
            build_stack([DieSpec(die1)]), FAST
        ) == geometry_key(build_stack([DieSpec(die2)]), FAST)

    def test_conductivity_change_is_a_new_key(self):
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        stack = build_stack([DieSpec(die)])
        swept = stack.replace_layer(
            stack.layer("metal-1").with_conductivity(24.0)
        )
        assert geometry_key(stack, FAST) != geometry_key(swept, FAST)
        assemble_system(stack, FAST)
        assemble_system(swept, FAST)
        stats = operator_cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_config_change_is_a_new_key(self):
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        stack = build_stack([DieSpec(die)])
        assemble_system(stack, FAST)
        assemble_system(
            stack, SolverConfig(nx=24, ny=24, heatsink_h=5000.0)
        )
        stats = operator_cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_reuse_can_be_disabled(self):
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        stack = build_stack([DieSpec(die)])
        assemble_system(stack, FAST, reuse_operator=False)
        assemble_system(stack, FAST, reuse_operator=False)
        stats = operator_cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["size"] == 0

    def test_cache_is_bounded(self):
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        stack = build_stack([DieSpec(die)])
        for ambient in range(30, 40):  # 10 distinct geometries
            assemble_system(
                stack, SolverConfig(nx=12, ny=12, ambient_c=float(ambient))
            )
        stats = operator_cache_stats()
        assert stats["size"] == stats["max_size"] < 10
        # The most recent geometry is still resident.
        assemble_system(stack, SolverConfig(nx=12, ny=12, ambient_c=39.0))
        assert operator_cache_stats()["hits"] == 1

    def test_transient_repeat_is_identical(self):
        from repro.thermal.transient import solve_transient

        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        stack = build_stack([DieSpec(die)])
        tiny = SolverConfig(nx=12, ny=12)
        first = solve_transient(stack, tiny, duration_s=0.5, dt_s=0.05)
        again = solve_transient(stack, tiny, duration_s=0.5, dt_s=0.05)
        assert first.peak_c == again.peak_c
        # One assembly; the transient LU hangs off that operator.
        stats = operator_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] >= 1


def _figure3_stack(curve, k):
    """The figure-3 Logic+Logic stack with one layer family swept to k."""
    bottom, top = pentium4_3d_floorplans()
    base = build_stack([DieSpec(bottom), DieSpec(top)])
    names = ("metal-1", "metal-2") if curve == "cu" else ("bond-1",)
    for name in names:
        base = base.replace_layer(base.layer(name).with_conductivity(k))
    return base


class TestSteadyCg:
    """Steady solves run Jacobi-preconditioned CG; a direct SuperLU solve
    of the same assembled system is the reference."""

    @pytest.mark.parametrize("curve", ["cu", "bond"])
    @pytest.mark.parametrize("k", [3.0, 60.0])
    def test_peaks_match_superlu_on_figure3_stacks(self, curve, k):
        stack = _figure3_stack(curve, k)
        config = SolverConfig(nx=20, ny=20)
        solution = solve_steady_state(stack, config)
        system = assemble_system(stack, config)
        lu = spla.splu(system.matrix, permc_spec="MMD_AT_PLUS_A")
        reference = system.solution_from(lu.solve(system.rhs))
        assert relative_residual(
            system.matrix, solution.temperature.ravel(), system.rhs
        ) <= 1e-10
        assert abs(
            solution.peak_temperature() - reference.peak_temperature()
        ) <= 1e-9

    def test_nonconvergent_cg_raises(self, monkeypatch):
        # Far fewer iterations than the few hundred a solve needs.
        monkeypatch.setattr(solver_module, "_CG_MAXITER", 5)
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        with pytest.raises(SolverDivergenceError,
                           match="did not converge") as info:
            solve_steady_state(build_stack([DieSpec(die)]), FAST)
        assert info.value.method == "cg"

    def test_nonfinite_cg_output_raises(self):
        # A NaN coupling passes the diagonal check and poisons the
        # iterates; the loop stops and the output check raises.
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        system = assemble_system(
            build_stack([DieSpec(die)]), FAST, reuse_operator=False
        )
        matrix = system.matrix.tocoo()
        off_diagonal = np.flatnonzero(matrix.row != matrix.col)[0]
        matrix.data[off_diagonal] = np.nan
        system.matrix = matrix.tocsc()
        with pytest.raises(SolverDivergenceError, match="non-finite") as info:
            solver_module._solve_cg(system)
        assert info.value.method == "cg"

    def test_nonpositive_diagonal_raises(self):
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        system = assemble_system(
            build_stack([DieSpec(die)]), FAST, reuse_operator=False
        )
        system.matrix = system.matrix - sp.diags(system.matrix.diagonal())
        with pytest.raises(SolverDivergenceError, match="diagonal") as info:
            solver_module._solve_cg(system)
        assert info.value.method == "cg"


#: Die widths, m: the 10 mm test die, the Pentium 4 3D die, the Core 2
#: Duo die and the planar Pentium 4 die.
DIE_WIDTHS_M = (10.0 * MM, 10.125 * MM, 12.0 * MM, 14.85 * MM)


class TestLateralGrid:
    """The one grid rule: uniform die cells whose edges are grid lines,
    and a periphery graded outward to the domain edge."""

    @pytest.mark.parametrize("die_m", DIE_WIDTHS_M)
    @pytest.mark.parametrize("n", [4, 12, 20, 24, 32, 40, 48, 64, 96])
    def test_grid_rule(self, die_m, n):
        widths, i0 = cell_widths(DOMAIN_SIZE_M, die_m, n)
        n_die = len(widths) - 2 * i0
        die = widths[i0:i0 + n_die]
        strip = widths[i0 + n_die:]
        assert widths.sum() == pytest.approx(DOMAIN_SIZE_M, rel=1e-12)
        assert n_die == max(2, round(die_m / (DOMAIN_SIZE_M / n)))
        assert np.all(die == die[0])
        assert die.sum() == pytest.approx(die_m, rel=1e-12)
        assert np.array_equal(widths[:i0], strip[::-1])
        assert np.all(np.diff(strip) > 0)

    def test_die_fills_the_domain(self):
        widths, i0 = cell_widths(DOMAIN_SIZE_M, DOMAIN_SIZE_M, 20)
        assert i0 == 0 and len(widths) == 20

    def test_figure6_peak_is_stable_across_grids(self):
        # Snapping the die to whole uniform cells swung this 3.5 C.
        peaks = [
            solve_steady_state(build_stack([DieSpec(core2duo_floorplan())]),
                               SolverConfig(nx=n, ny=n)).peak_temperature()
            for n in (24, 32, 48, 64, 96)
        ]
        assert max(peaks) - min(peaks) <= 1.0

    def test_die_region_matches_the_footprint(self, planar_solution):
        j0, j1, i0, i1 = planar_solution.die_region
        ny, nx = planar_solution.temperature.shape[1:]
        assert (j0, i0) == (ny - j1, nx - i1)
        assert i1 - i0 == round(
            planar_solution.stack.die_width_m
            / (DOMAIN_SIZE_M / planar_solution.config.nx)
        )


#: Prints the hex peak of one steady solve with n > 10,000 unknowns,
#: where OpenBLAS runs a dot product on several threads.
_BLAS_PROBE = """
from repro.floorplan import core2duo_floorplan
from repro.thermal.solver import SolverConfig, solve_steady_state
from repro.thermal.stack import DieSpec, build_stack
solution = solve_steady_state(build_stack([DieSpec(core2duo_floorplan())]),
                              SolverConfig(nx=48, ny=48))
assert solution.temperature.size > 10_000
print(solution.peak_temperature().hex())
"""


def test_steady_peak_ignores_blas_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    peaks = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        peaks.append(proc.stdout.strip())
    assert peaks[0] == peaks[1]


class TestSolverGuardsWired:
    def test_steady_state_records_residual(self):
        stack = build_stack([DieSpec(core2duo_floorplan())])
        config = SolverConfig(nx=12, ny=12)
        reset_oracles()
        with oracle_mode("sample"):
            solution = solve_steady_state(stack, config)
        report = oracle_report()
        reset_oracles()
        assert report.checks.get("thermal.residual", 0) >= 1
        assert report.clean
        system = assemble_system(stack, config)
        assert 0.0 <= relative_residual(
            system.matrix, solution.temperature.ravel(), system.rhs
        ) < 1e-8

    def test_nan_power_is_rejected_not_repaired(self):
        # A NaN power injection is bad input, not a solver failure.
        # (Before the guard, NaN power silently became *zero* power.)
        plan = core2duo_floorplan()
        bad_plan = Floorplan(
            plan.name, plan.die_width, plan.die_height,
            [b.with_power(float("nan")) for b in plan.blocks],
        )
        with pytest.raises(GuardViolation) as info:
            solve_steady_state(
                build_stack([DieSpec(bad_plan)]), SolverConfig(nx=12, ny=12)
            )
        assert info.value.guard == "power-map"


class TestSolverConfigValidation:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            SolverConfig(nx=2, ny=2)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            SolverConfig(heatsink_h=0.0)


class TestSolutionQueries:
    def test_layer_planes_cover_all_layers(self, planar_solution):
        stack = planar_solution.stack
        planes = planar_solution.layer_planes
        assert set(planes) == {layer.name for layer in stack.layers}
        total = sum(z1 - z0 for z0, z1 in planes.values())
        assert total == planar_solution.temperature.shape[0]

    def test_die_layers_detected(self, stacked_solution):
        names = stacked_solution.die_layer_names
        assert "bulk-si-1" in names
        assert "metal-1" in names
        assert "bond-1" in names
        assert "metal-2" in names
        assert "heat-sink" not in names
        assert "package" not in names

    def test_die_map_shape_matches_region(self, planar_solution):
        j0, j1, i0, i1 = planar_solution.die_region
        die_map = planar_solution.die_map("metal-1")
        assert die_map.shape == (j1 - j0, i1 - i0)

    def test_coolest_on_die_below_peak(self, planar_solution):
        assert (
            planar_solution.coolest_on_die()
            < planar_solution.peak_temperature()
        )

    def test_hottest_layer_is_an_active_layer(self, stacked_solution):
        assert stacked_solution.hottest_layer() in (
            "metal-1", "metal-2", "bond-1", "bulk-si-1", "bulk-si-2"
        )


class TestPaperOperatingPoints:
    """Coarse-grid sanity on the calibrated operating points; the
    benchmarks check the fine-grid values against the paper."""

    def test_baseline_near_88c(self, planar_solution):
        assert 82.0 <= planar_solution.peak_temperature() <= 95.0

    def test_sram_stack_hotter_than_baseline(
        self, planar_solution, stacked_solution
    ):
        # Figure 8: the 12 MB SRAM option is the hottest stack.
        assert (
            stacked_solution.peak_temperature()
            > planar_solution.peak_temperature()
        )

    def test_dram32_cooler_than_sram12(self, baseline_die, stacked_solution):
        nol2 = core2duo_floorplan(with_l2=False)
        dram = stacked_cache_die("dram-32mb", nol2)
        sol32 = solve_steady_state(
            build_stack([DieSpec(nol2), DieSpec(dram, "al")]), FAST
        )
        assert sol32.peak_temperature() < stacked_solution.peak_temperature()
