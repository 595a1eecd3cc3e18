"""Tests for the acceptance harness and the instruction-fetch path."""

import pytest

from repro.core.experiments import get_experiment
from repro.memsim import baseline_config, replay_trace
from repro.memsim.hierarchy import L1, L2, MemoryHierarchy
from repro.thermal.solver import SolverConfig
from repro.traces.generator import TraceGenerator, WorkloadSpec
from repro.traces.record import AccessType, validate_trace
from repro.validation import (
    Check,
    FAIL,
    PASS,
    SHAPE,
    ValidationReport,
    run_validation,
    validate_dvfs,
    validate_logic_performance,
)


class TestValidationPrimitives:
    def test_check_render(self):
        check = Check("figure-6", "peak", 88.35, 88.52, PASS)
        text = check.render()
        assert "PASS" in text and "figure-6" in text

    def test_check_render_shape_and_note(self):
        check = Check("figure-11", "3D", 112.5, 107.1, SHAPE, "cooler")
        text = check.render()
        assert "SHAPE" in text and "(cooler)" in text

    def test_report_counts(self):
        report = ValidationReport()
        report.add(Check("x", "a", 1.0, 1.0, PASS))
        report.add(Check("x", "b", 1.0, 9.0, FAIL))
        assert report.counts == {PASS: 1, SHAPE: 0, FAIL: 1}
        assert len(report.failures) == 1
        assert "1 pass" in report.render()


class TestValidationSections:
    def test_logic_performance_all_pass(self):
        report = ValidationReport()
        validate_logic_performance(report)
        assert not report.failures
        assert report.counts[PASS] >= 12

    def test_dvfs_all_pass(self):
        report = ValidationReport()
        validate_dvfs(report, SolverConfig(nx=20, ny=20))
        assert not report.failures
        assert report.counts[PASS] == 8

    def test_full_run_without_memory(self):
        report = run_validation(
            grid=SolverConfig(nx=24, ny=24), include_memory=False
        )
        assert not report.failures
        # Thermals + table 4 + table 5 + headline power.
        assert len(report.checks) >= 30

    def test_paper_values_come_from_the_registry(self):
        report = run_validation(
            grid=SolverConfig(nx=12, ny=12), include_memory=False
        )
        paper = {
            experiment_id: get_experiment(experiment_id).paper_values
            for experiment_id in ("figure-6", "figure-8", "figure-11",
                                  "table-4", "table-5", "headlines")
        }
        expected = {
            "peak temperature (C)": paper["figure-6"]["peak_c"],
            "coolest on-die (C)": paper["figure-6"]["coolest_c"],
            "2D baseline (C)": paper["figure-11"]["2D Baseline"],
            "3D floorplan (C)": paper["figure-11"]["3D"],
            "3D worst case (C)": paper["figure-11"]["3D Worstcase"],
            "total gain (%)": paper["table-4"]["total"],
            "stages eliminated (%)": paper["table-4"]["stages_eliminated"],
            "logic power reduction (%)":
                paper["headlines"]["logic_power_reduction_pct"],
        }
        for name, value in paper["figure-8"].items():
            expected[f"{name} peak (C)"] = value
        for name, value in paper["table-4"].items():
            expected[f"{name} gain (%)"] = value
        for name, row in paper["table-5"].items():
            expected[f"{name} power (W)"] = row["power_w"]
            expected[f"{name} perf (%)"] = row["perf_pct"]
        graded = [c for c in report.checks if c.paper is not None]
        assert len(graded) >= 30
        for check in graded:
            assert check.paper == expected[check.name], check


class TestInstructionFetch:
    def make_trace(self, n=60_000, every=4):
        spec = WorkloadSpec(name="conj", n_records=n, ifetch_every=every)
        return list(TraceGenerator(spec, scale=16).records())

    def test_ifetch_records_emitted_and_valid(self):
        records = self.make_trace()
        validate_trace(records)
        kinds = {r.kind for r in records}
        assert AccessType.IFETCH in kinds
        fraction = sum(
            1 for r in records if r.kind == AccessType.IFETCH
        ) / len(records)
        assert fraction == pytest.approx(0.25, abs=0.02)

    def test_ifetch_addresses_are_code(self):
        records = self.make_trace(n=5_000)
        for record in records:
            if record.kind == AccessType.IFETCH:
                assert record.address == record.ip

    def test_ifetch_hits_l1i_mostly(self):
        # RMS kernels are tiny loops: the L1I must absorb nearly all
        # fetches after warmup.
        records = self.make_trace()
        hier = MemoryHierarchy(baseline_config(16))
        replay_trace(records, hierarchy=hier, warmup_fraction=0.3)
        l1i = hier.l1is[0]
        assert l1i.hit_rate > 0.99

    def test_ifetch_path_levels(self):
        hier = MemoryHierarchy(baseline_config(16))
        first = hier.ifetch(0, 0x400000, 0.0)
        assert first.level != L1
        again = hier.ifetch(0, 0x400000, first.completion)
        assert again.level == L1

    def test_ifetch_does_not_pollute_l1d(self):
        hier = MemoryHierarchy(baseline_config(16))
        hier.ifetch(0, 0x400000, 0.0)
        assert not hier.l1s[0].contains(0x400000 >> 6)
        assert hier.l1is[0].contains(0x400000 >> 6)

    def test_replay_with_ifetch_changes_little(self):
        # Loop-resident code: CPMA with ifetch interleaved stays in the
        # same band as the pure-data trace.
        plain = WorkloadSpec(name="conj", n_records=60_000)
        with_if = WorkloadSpec(name="conj", n_records=60_000, ifetch_every=4)
        cpma_plain = replay_trace(
            list(TraceGenerator(plain, scale=16).records()),
            baseline_config(16), warmup_fraction=0.3,
        ).cpma
        cpma_if = replay_trace(
            list(TraceGenerator(with_if, scale=16).records()),
            baseline_config(16), warmup_fraction=0.3,
        ).cpma
        assert cpma_if < cpma_plain * 1.3
