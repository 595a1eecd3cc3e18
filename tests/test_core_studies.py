"""Integration tests for the Section 3/4 study drivers and experiments."""

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.experiments import get_experiment, list_experiments
from repro.core.logic_on_logic import (
    run_logic_study,
    run_performance_study as run_logic_perf,
    thermal_map_3d_power,
)
from repro.core.memory_on_logic import (
    TRACE_PLAN,
    build_memory_configs,
    run_performance_study,
    run_thermal_study,
)
from repro.floorplan import core2duo_floorplan
from repro.memsim.config import DramCacheConfig
from repro.memsim.dramcache import DramCache
from repro.memsim.replay import TraceReplayer, replay_trace
from repro.oracles.config import get_oracle_config, oracle_mode, set_oracle_mode
from repro.oracles.report import (
    oracle_report,
    record_violation,
    reset_oracles,
)
from repro.thermal.solver import SolverConfig, solve_steady_state
from repro.thermal.stack import DieSpec, build_stack
from repro.traces.generator import TraceGenerator, WorkloadSpec

FAST = SolverConfig(nx=24, ny=24)

#: The memory-on-logic configuration names, in Figure 5/7/8 order.
MEMORY_CONFIG_NAMES = ("2D 4MB", "3D 12MB", "3D 32MB", "3D 64MB")


class TestMemoryConfigs:
    def test_four_configurations(self):
        configs = build_memory_configs()
        assert [c.name for c in configs] == list(MEMORY_CONFIG_NAMES)

    def test_figure7_powers(self):
        # (a) 92 W; (b) 106 W; (c) 88+3.1; (d) 92+6.2.
        power = {c.name: c.total_power_w for c in build_memory_configs()}
        assert power["2D 4MB"] == pytest.approx(92.0)
        assert power["3D 12MB"] == pytest.approx(106.0)
        assert power["3D 64MB"] == pytest.approx(98.2)
        assert power["3D 32MB"] < power["3D 12MB"]  # "slightly lower power"

    def test_stack_objects(self):
        configs = {c.name: c for c in build_memory_configs()}
        assert len(configs["2D 4MB"].dies) == 1
        for name in ("3D 12MB", "3D 32MB", "3D 64MB"):
            cpu, cache = configs[name].dies
            # "the highest power die is placed closest to the heat sink"
            assert cpu.floorplan.total_power > cache.floorplan.total_power
        assert [d.metal for d in configs["3D 32MB"].dies] == ["cu", "al"]
        assert [d.metal for d in configs["3D 12MB"].dies] == ["cu", "cu"]

    def test_dram_configs_have_no_l2(self):
        configs = {c.name: c for c in build_memory_configs()}
        assert configs["3D 32MB"].hierarchy.l2 is None
        assert configs["3D 64MB"].hierarchy.l2 is None
        assert configs["2D 4MB"].hierarchy.l2 is not None


class TestMemoryStudy:
    @pytest.fixture(scope="class")
    def quick_result(self):
        # Two contrasting workloads at reduced length: gauss (capacity
        # winner) and ssym (fits the baseline).
        return run_performance_study(
            workloads=["gauss", "ssym"], scale=16, length_factor=0.5
        )

    def test_result_shape(self, quick_result):
        assert set(quick_result.cpma) == {"gauss", "ssym"}
        for row in quick_result.cpma.values():
            assert set(row) == set(MEMORY_CONFIG_NAMES)

    def test_gauss_wins_big_at_32mb(self, quick_result):
        gauss = quick_result.cpma["gauss"]
        assert gauss["3D 32MB"] < 0.6 * gauss["2D 4MB"]

    def test_ssym_does_not_need_capacity(self, quick_result):
        # Fits at 4 MB: no *improvement* from the bigger caches.
        ssym = quick_result.cpma["ssym"]
        assert ssym["3D 12MB"] <= ssym["2D 4MB"] * 1.05

    def test_bandwidth_falls_with_capacity(self, quick_result):
        gauss = quick_result.bandwidth["gauss"]
        assert gauss["3D 32MB"] < gauss["2D 4MB"]

    def test_bus_power_tracks_bandwidth(self, quick_result):
        gauss_bw = quick_result.bandwidth["gauss"]
        gauss_pw = quick_result.bus_power["gauss"]
        # 20 mW/Gb/s: power = BW(GB/s) * 8 * 0.02.
        for name in MEMORY_CONFIG_NAMES:
            assert gauss_pw[name] == pytest.approx(
                gauss_bw[name] * 8 * 0.020, rel=1e-6
            )

    def test_aggregates(self, quick_result):
        avg_base = quick_result.average_cpma("2D 4MB")
        avg_32 = quick_result.average_cpma("3D 32MB")
        assert avg_32 < avg_base
        assert 0.0 < quick_result.max_cpma_reduction("3D 32MB") <= 1.0


#: Small fan-out study: two kernels at the 10k-record trace floor.
FANOUT_KERNELS = ["svd", "savif"]
#: Cells the study submits for a trace at once: 32 MB, 4 MB and 12 MB.
FIRST_ROUND_CELLS = 3
FANOUT_SCALE = 16
FANOUT_LENGTH = 0.01
SRC = str(Path(__file__).resolve().parents[1] / "src")


class CellFailure(Exception):
    """Raised inside a replay worker by TestReplayFanOut."""


def _study_trace(name, scale=FANOUT_SCALE):
    """*name*'s study trace at :data:`FANOUT_LENGTH`, and its warmup."""
    n_records, warmup = TRACE_PLAN[name]
    n_records = max(10_000, int(n_records * FANOUT_LENGTH))
    spec = WorkloadSpec(name=name, n_records=n_records, seed=1234)
    return TraceGenerator(spec, scale=scale).arrays(), warmup


def _direct_cells(kernels=FANOUT_KERNELS, config_names=MEMORY_CONFIG_NAMES,
                  scale=FANOUT_SCALE):
    """The Figure 5 cells replayed one after another in this process."""
    configs = [c for c in build_memory_configs(scale)
               if c.name in config_names]
    cells = {}
    for name in kernels:
        records, warmup = _study_trace(name, scale)
        cells[name] = {
            config.name: replay_trace(
                records, config.hierarchy, warmup_fraction=warmup
            )
            for config in configs
        }
    return cells


def _fanout_study():
    return run_performance_study(
        FANOUT_KERNELS, scale=FANOUT_SCALE, length_factor=FANOUT_LENGTH
    )


def _live(pid):
    """True while *pid* exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


def _children(pid):
    kids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rpartition(")")[2].split()[1]) == pid:
            kids.append(int(entry.name))
    return kids


@pytest.fixture
def clean_oracles():
    """An empty scoreboard, and the caller's oracle mode restored."""
    previous = get_oracle_config()
    reset_oracles()
    yield
    set_oracle_mode(previous)
    reset_oracles()


@pytest.mark.usefixtures("clean_oracles")
class TestReplayFanOut:
    """run_performance_study replays its cells in one worker pool."""

    @pytest.fixture
    def temp_root(self, tmp_path, monkeypatch):
        """Where the study's temp dir goes (``tempfile.gettempdir()``)."""
        root = tmp_path / "temp"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        return root

    def test_matches_direct_replay_loop(self):
        # Neither tiny trace evicts a page at 32 MB, so the study replays
        # three cells per trace and derives the 64 MB one: its stats
        # still equal a real replay, and it is band-checked too.
        direct = _direct_cells()
        reset_oracles()
        _direct_cells(config_names=MEMORY_CONFIG_NAMES[:3])
        direct_checks = oracle_report().checks
        reset_oracles()
        result = _fanout_study()
        assert result.replay == direct
        assert result.derived_64mb == FANOUT_KERNELS
        checks = oracle_report().checks
        assert checks.pop("uarch.cpma-band") == len(FANOUT_KERNELS) * len(
            MEMORY_CONFIG_NAMES
        )
        assert checks == direct_checks

    def test_cells_run_longest_first_but_report_in_caller_order(
        self, monkeypatch, temp_root
    ):
        import repro.core.memory_on_logic as study

        kernels = ["savif", "svd"]  # shortest first in TRACE_PLAN
        direct = _direct_cells(kernels)
        reset_oracles()
        generated = []
        real_arrays = TraceGenerator.arrays

        def spy_arrays(generator):
            generated.append(generator.spec.name)
            return real_arrays(generator)

        class TaggedReplayer(TraceReplayer):
            def feed_array(self, array):
                self.trace_file = array.filename
                return super().feed_array(array)

            def stats(self):
                stats = super().stats()
                record_violation(
                    "test.cell", "memsim", f"{stats.cpma!r} {self.trace_file}"
                )
                return stats

        monkeypatch.setattr(TraceGenerator, "arrays", spy_arrays)
        monkeypatch.setattr(study, "TraceReplayer", TaggedReplayer)
        result = run_performance_study(
            kernels, scale=FANOUT_SCALE, length_factor=FANOUT_LENGTH
        )
        assert generated == ["svd", "savif"]
        assert list(result.replay) == kernels
        assert result.replay == direct
        cells = [
            v.detail.split(" ", 1)
            for v in oracle_report().violations
            if v.oracle == "test.cell"
        ]
        # The replayed cells, in caller order; no 64 MB cell is replayed
        # (both are derived), and a derived cell has no scoreboard.
        assert result.derived_64mb == kernels
        assert [cpma for cpma, _ in cells] == [
            repr(direct[name][config].cpma)
            for name in kernels
            for config in MEMORY_CONFIG_NAMES[:3]
        ]
        # Every cell mapped a trace file in the study dir, now removed.
        assert all(Path(path).parent.parent == temp_root for _, path in cells)
        assert list(temp_root.iterdir()) == []

    def test_worker_violation_reaches_the_caller(self, monkeypatch):
        import repro.memsim.replay as replay_module

        real = replay_module.check_cache_sets

        def forced(sets, ways, label):
            if label == "stacked-sram":
                return [f"{label}: forced corruption"]
            return real(sets, ways, label)

        monkeypatch.setattr(replay_module, "check_cache_sets", forced)
        result = _fanout_study()
        for row in result.replay.values():
            assert {c: s.degraded for c, s in row.items()} == {
                "2D 4MB": False,
                "3D 12MB": True,
                "3D 32MB": False,
                "3D 64MB": False,
            }
        details = [v.detail for v in oracle_report().violations]
        assert details
        assert set(details) == {"stacked-sram: forced corruption"}

    def test_oracle_mode_carries_into_workers(self):
        with oracle_mode("off"):
            _fanout_study()
        assert not any(k.startswith("memsim.") for k in oracle_report().checks)
        reset_oracles()
        with oracle_mode("strict"):
            run_performance_study(
                ["svd"], scale=FANOUT_SCALE, length_factor=FANOUT_LENGTH
            )
        assert oracle_report().checks["memsim.replay-differential"] > 0

    def test_runs_from_a_non_main_thread(self):
        idle = threading.Event()
        bystander = threading.Thread(target=idle.wait)
        bystander.start()
        results = []
        caller = threading.Thread(
            target=lambda: results.append(_fanout_study())
        )
        try:
            caller.start()
            caller.join(timeout=120)
            assert not caller.is_alive()
        finally:
            idle.set()
            bystander.join(timeout=10)
        assert not bystander.is_alive()
        assert set(results[0].cpma) == set(FANOUT_KERNELS)

    def test_worker_exception_keeps_its_type(self, monkeypatch, temp_root):
        import repro.core.memory_on_logic as study

        def boom(*args, **kwargs):
            raise CellFailure("replay failed in a worker")

        monkeypatch.setattr(study, "TraceReplayer", boom)
        with pytest.raises(CellFailure, match="replay failed in a worker"):
            _fanout_study()
        assert multiprocessing.active_children() == []
        assert list(temp_root.iterdir()) == []

    @pytest.mark.parametrize(
        "cpus, kernels, workers",
        [
            # One trace: its three first-round cells run at once even
            # on fewer cores, and no more workers than its four cells.
            (1, ["svd"], 3),
            (2, ["svd"], 3),
            (4, ["svd"], 4),
            (8, ["svd"], 4),
            # Many traces: one worker per core, but never fewer than a
            # trace's first round.
            (1, ["svd", "savif", "gauss"], 3),
            (2, ["svd", "savif", "gauss"], 3),
            (4, ["svd", "savif", "gauss"], 4),
            (8, ["svd", "savif", "gauss"], 8),
        ],
    )
    def test_worker_count(self, monkeypatch, cpus, kernels, workers):
        import concurrent.futures

        sizes = []

        class PoolSized(Exception):
            pass

        def sized_pool(max_workers, **kwargs):
            sizes.append(max_workers)
            raise PoolSized

        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cpus))
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", sized_pool)
        with pytest.raises(PoolSized):
            run_performance_study(
                kernels, scale=FANOUT_SCALE, length_factor=FANOUT_LENGTH
            )
        assert sizes == [workers]

    def test_workers_exit_with_a_killed_caller(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["TMPDIR"] = str(tmp_path)
        # Full-length svd: each cell replays for seconds, so the caller
        # is killed while its workers are busy.
        code = (
            "from repro.core.memory_on_logic import run_performance_study\n"
            "run_performance_study(['svd'], scale=8)\n"
        )
        n_workers = min(
            max(len(os.sched_getaffinity(0)), FIRST_ROUND_CELLS),
            len(MEMORY_CONFIG_NAMES),
        )
        caller = subprocess.Popen([sys.executable, "-c", code], env=env)
        try:
            deadline = time.monotonic() + 120
            workers = []
            while len(workers) < n_workers and time.monotonic() < deadline:
                assert caller.poll() is None, "caller finished too early"
                time.sleep(0.05)
                workers = _children(caller.pid)
            assert len(workers) == n_workers
            assert [p.name[:14] for p in tmp_path.iterdir()] == [
                "repro-figure5-"
            ]
        finally:
            caller.send_signal(signal.SIGKILL)
            caller.wait()
        deadline = time.monotonic() + 5
        while any(_live(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_live(pid) for pid in workers)
        # The orphaned workers removed the study dir the caller left.
        assert list(tmp_path.iterdir()) == []


#: Two tiny traces at a scale where the 32 MB DRAM cache is 64 KB:
#: smvm's evicts pages there (and its 64 MB stats differ), svd's none.
DOMINANCE_KERNELS = ["smvm", "svd"]
DOMINANCE_SCALE = 512


def _dram_evictions(name, config_name, scale):
    """Pages a direct replay of *name*'s study trace evicts from the
    config's DRAM cache, warmup included."""
    config = {c.name: c for c in build_memory_configs(scale)}[config_name]
    records, warmup = _study_trace(name, scale)
    replayer = TraceReplayer(
        config.hierarchy, warmup_until=int(len(records) * warmup)
    )
    replayer.feed_array(records)
    return replayer.hierarchy.stacked_dram.lifetime_page_evictions


@pytest.mark.usefixtures("clean_oracles")
class TestCapacityDominance:
    """A trace's 64 MB cell is replayed only when its 32 MB cell evicted
    a page or is degraded; otherwise it is a copy of the 32 MB stats."""

    @pytest.fixture(scope="class")
    def study(self):
        return run_performance_study(
            DOMINANCE_KERNELS, scale=DOMINANCE_SCALE,
            length_factor=FANOUT_LENGTH,
        )

    @pytest.fixture(scope="class")
    def direct(self):
        return _direct_cells(DOMINANCE_KERNELS, scale=DOMINANCE_SCALE)

    def test_dram_configs_differ_only_in_sets(self):
        # The premise of the rule: same hierarchy, same ways, twice the
        # sets (so each 64 MB set holds a subset of one 32 MB set).
        for scale in (1, 8, DOMINANCE_SCALE):
            configs = {c.name: c.hierarchy for c in build_memory_configs(scale)}
            small, large = configs["3D 32MB"], configs["3D 64MB"]
            assert large.stacked_dram.n_sets == 2 * small.stacked_dram.n_sets
            assert dataclasses.replace(
                large, stacked_dram=small.stacked_dram
            ) == small

    def test_eviction_counter_survives_the_warmup_reset(self):
        # One set of eight ways: the ninth page evicts the first.
        cache = DramCache(DramCacheConfig(size_bytes=512 * 8))
        for page in range(9):
            cache.fill(page * 512)
        assert cache.page_evictions == cache.lifetime_page_evictions == 1
        cache.reset_stats()
        assert cache.page_evictions == 0
        assert cache.lifetime_page_evictions == 1

    def test_study_equals_an_all_cells_replay(self, study, direct):
        assert study.replay == direct
        assert study.derived_64mb == ["svd"]

    def test_derived_cell_is_a_copy_of_a_real_replay(self, study, direct):
        assert _dram_evictions("svd", "3D 32MB", DOMINANCE_SCALE) == 0
        row = study.replay["svd"]
        assert row["3D 64MB"] is not row["3D 32MB"]
        assert dataclasses.asdict(row["3D 64MB"]) == dataclasses.asdict(
            direct["svd"]["3D 64MB"]
        )

    def test_evicting_cell_gets_a_real_replay(self, study, direct):
        assert _dram_evictions("smvm", "3D 32MB", DOMINANCE_SCALE) > 0
        assert "smvm" not in study.derived_64mb
        # Reusing the 32 MB stats here would be wrong.
        real = direct["smvm"]
        assert real["3D 64MB"].cpma != real["3D 32MB"].cpma
        assert study.replay["smvm"]["3D 64MB"] == real["3D 64MB"]

    def test_degraded_cell_is_not_reused(self, monkeypatch):
        small_sets = {
            c.name: c.hierarchy for c in build_memory_configs(FANOUT_SCALE)
        }["3D 32MB"].stacked_dram.n_sets
        real = TraceReplayer._structure_invariants

        def forced(replayer):
            real(replayer)
            dram = replayer.hierarchy.stacked_dram
            if dram is not None and dram.n_sets == small_sets:
                replayer._record_replay_violation("forced", "degraded")

        monkeypatch.setattr(TraceReplayer, "_structure_invariants", forced)
        with oracle_mode("sample"):
            result = _fanout_study()
        assert result.derived_64mb == []
        for row in result.replay.values():
            assert row["3D 32MB"].degraded
            assert not row["3D 64MB"].degraded
        forced = [v for v in oracle_report().violations if v.detail == "forced"]
        assert len(forced) == len(FANOUT_KERNELS)


class TestMemoryThermals:
    @pytest.fixture(scope="class")
    def temps(self):
        return run_thermal_study(FAST)

    def test_all_configs_solved(self, temps):
        assert set(temps) == set(MEMORY_CONFIG_NAMES)

    def test_figure8_ordering(self, temps):
        # SRAM stack hottest; DRAM stacks near baseline (Figure 8a).
        assert temps["3D 12MB"] == max(temps.values())
        assert abs(temps["3D 32MB"] - temps["2D 4MB"]) < 3.0
        assert temps["3D 64MB"] < temps["3D 12MB"]

    def test_stacking_not_a_thermal_barrier(self, temps):
        # The headline claim: stacking memory has negligible thermal cost.
        for name in ("3D 32MB", "3D 64MB"):
            assert temps[name] - temps["2D 4MB"] < 3.0


class TestFigure6Map:
    """Where Figure 6's extremes sit, at the figure's own 48-cell grid."""

    @pytest.fixture(scope="class")
    def die_map(self):
        solution = solve_steady_state(
            build_stack([DieSpec(core2duo_floorplan())]),
            SolverConfig(nx=48, ny=48),
        )
        return solution.die_map("metal-1")

    def test_hotspot_in_core_region(self, die_map):
        j, _ = np.unravel_index(np.argmax(die_map), die_map.shape)
        # Cores are the top half of the die; the L2 is the bottom half.
        assert j >= die_map.shape[0] // 2

    def test_cache_half_is_coolest(self, die_map):
        j, _ = np.unravel_index(np.argmin(die_map), die_map.shape)
        assert j < die_map.shape[0] // 2


class TestLogicStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_logic_study(solver=FAST)

    def test_stacked_power_near_125(self):
        # Table 4's 3D floorplan at the same frequency: ~125 W.
        assert run_logic_perf().stacked_power_w == pytest.approx(
            125.0, abs=1.0
        )

    def test_performance_headlines(self, result):
        assert result.total_gain_pct == pytest.approx(15.0, abs=1.0)
        assert result.stages_eliminated_pct == pytest.approx(25.0, abs=3.0)
        assert result.power_reduction_pct == pytest.approx(15.0, abs=1.0)

    def test_per_row_gains_complete(self, result):
        assert len(result.per_row_gains) == 10
        assert max(result.per_row_gains, key=result.per_row_gains.get) == (
            "fp_wire"
        )

    def test_figure11_ordering(self, result):
        assert (
            result.peak_temp_2d
            < result.peak_temp_3d
            < result.peak_temp_worstcase
        )

    def test_density_ratios(self, result):
        assert 1.1 <= result.density_ratio_3d <= 1.6
        assert result.density_ratio_worstcase == pytest.approx(2.0, abs=0.1)

    def test_table5_rows_present(self, result):
        names = [p.name for p in result.table5]
        assert names == [
            "Baseline", "Same Pwr", "Same Freq.", "Same Temp", "Same Perf."
        ]
        for point in result.table5:
            assert point.temp_c is not None

    def test_table5_temperature_ordering(self, result):
        rows = {p.name: p for p in result.table5}
        assert rows["Same Pwr"].temp_c > rows["Same Freq."].temp_c
        assert rows["Same Perf."].temp_c < rows["Same Temp"].temp_c

    def test_thermal_map_is_linear(self):
        thermal = thermal_map_3d_power(FAST)
        ambient_rise_100 = thermal(100.0) - 40.0
        ambient_rise_50 = thermal(50.0) - 40.0
        assert ambient_rise_100 == pytest.approx(2 * ambient_rise_50)

    def test_perf_only_study_skips_thermals(self):
        result = run_logic_perf()
        assert result.peak_temp_2d == 0.0
        assert result.table5 == []

    def test_solved_same_temp_point(self):
        result = run_logic_study(solver=FAST, solve_temp_point=True)
        rows = {p.name: p for p in result.table5}
        # The solved point must reproduce the baseline temperature.
        assert rows["Same Temp"].temp_c == pytest.approx(
            result.peak_temp_2d, abs=0.5
        )
        # And still deliver the headline shape: large power saving with
        # a residual performance gain.
        assert rows["Same Temp"].power_pct < 90.0
        assert rows["Same Temp"].perf_pct > 100.0


class TestExperimentRegistry:
    def test_every_table_and_figure_registered(self):
        assert set(list_experiments()) == {
            "figure-3", "figure-5", "figure-6", "figure-8", "figure-11",
            "table-4", "table-5", "table5_dynamic", "dtm_load_spike",
            "dtm_policy_compare", "headlines",
        }

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("figure-99")

    def test_figure6_runs(self):
        result = get_experiment("figure-6").run(nx=24)
        assert 80.0 <= result["peak_c"] <= 95.0
        assert result["coolest_c"] < result["peak_c"]

    def test_table4_runs(self):
        result = get_experiment("table-4").run()
        assert result["total_gain_pct"] == pytest.approx(15.0, abs=1.0)

    def test_table5_runs(self):
        result = get_experiment("table-5").run(nx=24)
        assert len(result["rows"]) == 5

    def test_headlines_run(self):
        result = get_experiment("headlines").run()
        assert result["logic_perf_gain_pct"] > 10.0
