"""Tests for the extension features: multi-die stacks, the transient
thermal solver, block splitting / auto 3D floorplanning, and
memory-in-stack hierarchies."""

import numpy as np
import pytest

from repro.floorplan import (
    auto_stack,
    core2duo_floorplan,
    pentium4_planar_floorplan,
    power_density_report,
    split_block,
    stacked_cache_die,
)
from repro.floorplan.blocks import Block, FloorplanError
from repro.thermal import (
    DieSpec,
    SolverConfig,
    build_stack,
    solve_steady_state,
    solve_transient,
)

FAST = SolverConfig(nx=20, ny=20)


@pytest.fixture(scope="module")
def cpu_die():
    return core2duo_floorplan()


@pytest.fixture(scope="module")
def dram_die(cpu_die):
    return stacked_cache_die("dram-32mb", cpu_die)


class TestMultiDieStacks:
    def test_more_dies_more_heat(self, cpu_die, dram_die):
        peaks = []
        for n_dram in (1, 2, 4):
            dies = [DieSpec(cpu_die)] + [
                DieSpec(dram_die, metal="al") for _ in range(n_dram)
            ]
            solution = solve_steady_state(build_stack(dies), FAST)
            peaks.append(solution.peak_temperature())
        assert peaks[0] < peaks[1] < peaks[2]

    def test_hbm_class_stack_is_thermally_viable(self, cpu_die, dram_die):
        # Four DRAM dies (128 MB at the paper's densities) must still be
        # within a few degrees of the baseline — the observation that
        # presaged HBM and 3D V-Cache.
        baseline = solve_steady_state(build_stack([DieSpec(cpu_die)]), FAST)
        dies = [DieSpec(cpu_die)] + [
            DieSpec(dram_die, metal="al") for _ in range(4)
        ]
        stack = solve_steady_state(build_stack(dies), FAST)
        assert stack.peak_temperature() - baseline.peak_temperature() < 6.0

    def test_energy_conserved(self, cpu_die, dram_die):
        dies = [DieSpec(cpu_die)] + [
            DieSpec(dram_die, metal="al") for _ in range(3)
        ]
        solution = solve_steady_state(build_stack(dies), FAST)
        assert solution.boundary_heat_flow() == pytest.approx(
            solution.stack.total_power, rel=1e-6
        )

    def test_layer_naming(self, cpu_die, dram_die):
        stack = build_stack(
            [DieSpec(cpu_die), DieSpec(dram_die, metal="al"),
             DieSpec(dram_die, metal="al")]
        )
        names = [layer.name for layer in stack.layers]
        for expected in ("metal-1", "bond-1", "metal-2", "bulk-si-2",
                         "bond-2", "metal-3", "bulk-si-3"):
            assert expected in names

    def test_rejects_mismatched_outlines(self, cpu_die):
        from repro.floorplan.blocks import uniform_floorplan

        small = uniform_floorplan("small", 5, 5, 1.0)
        with pytest.raises(ValueError, match="share an outline"):
            build_stack([DieSpec(cpu_die), DieSpec(small)])

    def test_rejects_unknown_metal(self, cpu_die, dram_die):
        with pytest.raises(ValueError, match="metal"):
            build_stack(
                [DieSpec(cpu_die), DieSpec(dram_die, metal="graphene")]
            )


class TestTransientSolver:
    @pytest.fixture(scope="class")
    def stack(self, cpu_die):
        return build_stack([DieSpec(cpu_die)])

    def test_starts_at_ambient(self, stack):
        run = solve_transient(stack, FAST, duration_s=0.5, dt_s=0.25)
        assert run.peak_c[0] == pytest.approx(FAST.ambient_c)

    def test_monotone_warmup(self, stack):
        run = solve_transient(stack, FAST, duration_s=5.0, dt_s=0.5)
        assert all(
            b >= a - 1e-9 for a, b in zip(run.peak_c, run.peak_c[1:])
        )

    def test_converges_to_steady_state(self, stack):
        steady = solve_steady_state(stack, FAST).peak_temperature()
        run = solve_transient(stack, FAST, duration_s=300.0, dt_s=5.0)
        assert run.peak_c[-1] == pytest.approx(steady, abs=0.5)

    def test_never_overshoots_steady(self, stack):
        steady = solve_steady_state(stack, FAST).peak_temperature()
        run = solve_transient(stack, FAST, duration_s=50.0, dt_s=1.0)
        assert max(run.peak_c) <= steady + 1e-6

    def test_power_step_down_cools(self, stack):
        run = solve_transient(
            stack, FAST, duration_s=40.0, dt_s=1.0,
            power_schedule=lambda t: 0.5 if t > 20.0 else 1.0,
        )
        idx_20s = run.times_s.index(20.0)
        assert run.peak_c[-1] < run.peak_c[idx_20s]

    def test_time_to_fraction(self, stack):
        run = solve_transient(stack, FAST, duration_s=20.0, dt_s=0.5)
        t63 = run.time_to_fraction(0.63)
        t95 = run.time_to_fraction(0.95)
        assert 0 < t63 <= t95

    def test_validation(self, stack):
        with pytest.raises(ValueError):
            solve_transient(stack, FAST, duration_s=0.0)
        with pytest.raises(ValueError):
            run = solve_transient(
                stack, FAST, duration_s=1.0, dt_s=0.5,
                power_schedule=lambda t: -1.0,
            )
        run = solve_transient(stack, FAST, duration_s=1.0, dt_s=0.5)
        with pytest.raises(ValueError):
            run.time_to_fraction(0.0)

    def test_initial_condition_respected(self, stack):
        steady = solve_steady_state(stack, FAST)
        run = solve_transient(
            stack, FAST, duration_s=2.0, dt_s=0.5,
            initial=steady.temperature,
        )
        # Starting at steady state, nothing changes.
        assert run.peak_c[-1] == pytest.approx(
            steady.peak_temperature(), abs=0.05
        )


class TestBlockSplitting:
    def test_split_block_halves(self):
        block = Block("big", 1.0, 1.0, 4.0, 2.0, 10.0)
        bottom, top = split_block(block)
        assert bottom.power == top.power == 5.0
        assert bottom.area == top.area == block.area / 2
        assert bottom.power_density == pytest.approx(block.power_density)
        assert (bottom.x, bottom.y) == (top.x, top.y) == (1.0, 1.0)

    def test_auto_stack_conserves_power(self):
        planar = pentium4_planar_floorplan()
        bottom, top = auto_stack(planar, split=["L2"])
        assert bottom.total_power + top.total_power == pytest.approx(
            planar.total_power
        )

    def test_auto_stack_shrinks_footprint(self):
        planar = pentium4_planar_floorplan()
        bottom, _ = auto_stack(planar, split=["L2", "D$"])
        assert bottom.die_area / planar.die_area < 0.9

    def test_auto_stack_balances_power(self):
        planar = pentium4_planar_floorplan()
        bottom, top = auto_stack(planar)
        imbalance = abs(bottom.total_power - top.total_power)
        assert imbalance < 0.2 * planar.total_power
        assert bottom.total_power >= top.total_power  # hot die to sink

    def test_auto_stack_outlines_match(self):
        planar = pentium4_planar_floorplan()
        bottom, top = auto_stack(planar, split=["L2"])
        assert bottom.die_width == top.die_width
        assert bottom.die_height == top.die_height

    def test_auto_stack_rejects_unknown_split(self):
        with pytest.raises(FloorplanError, match="unknown"):
            auto_stack(pentium4_planar_floorplan(), split=["L9"])

    def test_auto_stack_result_is_solvable(self):
        planar = pentium4_planar_floorplan()
        bottom, top = auto_stack(planar, split=["L2"])
        report = power_density_report(bottom, top)
        assert report.total_power == pytest.approx(planar.total_power)
        solution = solve_steady_state(
            build_stack([DieSpec(bottom), DieSpec(top)]), FAST
        )
        assert solution.peak_temperature() > FAST.ambient_c


class TestMemoryInStack:
    def test_no_offdie_traffic(self):
        from repro.memsim import replay_trace, stacked_memory_config
        from repro.traces import TraceGenerator, WorkloadSpec

        spec = WorkloadSpec("gauss", n_records=150_000)
        trace = list(TraceGenerator(spec, scale=16).records())
        stats = replay_trace(
            trace, stacked_memory_config(16), warmup_fraction=0.3
        )
        assert stats.bandwidth_gbps == 0.0
        assert stats.bus_power_w == 0.0
        assert stats.offchip_fraction == 0.0

    def test_faster_than_offdie_memory(self):
        from repro.memsim import (
            baseline_config,
            replay_trace,
            stacked_memory_config,
        )
        from repro.traces import TraceGenerator, WorkloadSpec

        spec = WorkloadSpec("gauss", n_records=300_000)
        trace = list(TraceGenerator(spec, scale=16).records())
        offdie = replay_trace(trace, baseline_config(16), warmup_fraction=0.3)
        on_stack = replay_trace(
            trace, stacked_memory_config(16), warmup_fraction=0.3
        )
        assert on_stack.cpma < offdie.cpma


class TestNumericsRegressionGuards:
    def test_transient_mass_positive(self, cpu_die):
        from repro.thermal.solver import assemble_system

        system = assemble_system(build_stack([DieSpec(cpu_die)]), FAST)
        assert np.all(system.mass > 0)

    def test_assembled_matrix_is_symmetric(self, cpu_die):
        from repro.thermal.solver import assemble_system

        system = assemble_system(build_stack([DieSpec(cpu_die)]), FAST)
        asym = abs(system.matrix - system.matrix.T)
        assert asym.max() < 1e-9
