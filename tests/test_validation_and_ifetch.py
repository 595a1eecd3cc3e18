"""Tests for the acceptance harness and the instruction-fetch path."""

from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.experiments import REGISTRY, get_experiment, list_experiments
from repro.memsim import baseline_config, replay_trace
from repro.memsim.hierarchy import L1, L2, MemoryHierarchy
from repro.traces.generator import TraceGenerator, WorkloadSpec
from repro.traces.record import AccessType, validate_trace
from repro.validation import (
    Check,
    FAIL,
    GRADERS,
    PASS,
    SHAPE,
    ValidationReport,
    run_validation,
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


#: Every graded experiment except the ~2 minute Figure 5 replay.
NO_MEMORY = [e for e in GRADERS if e != "figure-5"]

_CONFIGS = ("2D 4MB", "3D 12MB", "3D 32MB", "3D 64MB")

#: A Figure 5 result shaped like its ``run`` output.
FIGURE5 = {
    "cpma": {w: dict(zip(_CONFIGS, (4.0, 3.0, 2.0, 2.0)))
             for w in ("gauss", "sus", "pcg", "ssym", "savdf", "svd")},
    "bandwidth": {"gauss": dict(zip(_CONFIGS, (8.0, 5.0, 2.0, 2.0)))},
    "avg_cpma_reduction_32mb": 0.1,
    "max_cpma_reduction_32mb": 0.5,
    "bus_power_reduction_32mb": 0.75,
    "cells_derived_64mb": 11,
}


@pytest.fixture(scope="module")
def no_memory_report():
    """The graded runs ``repro validate`` does, at default kwargs."""
    return run_validation(NO_MEMORY)


def _rows(report, experiment_id):
    return [c for c in report.checks if c.experiment == experiment_id]


class TestValidationSections:
    def test_logic_performance_all_pass(self, no_memory_report):
        rows = (_rows(no_memory_report, "table-4")
                + _rows(no_memory_report, "headlines"))
        assert all(c.grade == PASS for c in rows)
        assert len(rows) >= 16

    def test_dvfs_all_pass(self, no_memory_report):
        rows = _rows(no_memory_report, "table-5")
        assert all(c.grade == PASS for c in rows)
        # Power, perf and temperature per point, plus the two
        # power-reduction headlines.
        assert len(rows) == 17

    def test_full_run_without_memory(self, no_memory_report):
        assert not no_memory_report.failures
        assert {c.experiment for c in no_memory_report.checks} == set(
            NO_MEMORY
        )
        assert len(no_memory_report.checks) >= 45

    def test_paper_values_come_from_the_registry(self, no_memory_report):
        paper = {
            experiment_id: get_experiment(experiment_id).paper_values
            for experiment_id in GRADERS
        }
        fig3, fig8, fig11 = (paper[e] for e in ("figure-3", "figure-8",
                                                 "figure-11"))
        table5 = paper["table-5"]
        expected = {
            "Cu span - bond span (C)":
                (fig3["cu_range_c"][1] - fig3["cu_range_c"][0])
                - (fig3["bond_range_c"][1] - fig3["bond_range_c"][0]),
            "max CPMA reduction at 32MB (%)":
                100.0 * paper["figure-5"]["max_cpma_reduction_32mb"],
            "bus power reduction (%)":
                100.0 * paper["figure-5"]["bus_power_reduction_32mb"],
            "average CPMA improves at 32MB (%)":
                100.0 * paper["figure-5"]["avg_cpma_reduction_32mb"],
            "peak temperature (C)": paper["figure-6"]["peak_c"],
            "coolest on-die (C)": paper["figure-6"]["coolest_c"],
            "32MB DRAM thermal cost (C)": fig8["3D 32MB"] - fig8["2D 4MB"],
            "2D baseline (C)": fig11["2D Baseline"],
            "3D floorplan (C)": fig11["3D"],
            "3D worst case (C)": fig11["3D Worstcase"],
            "3D thermal cost (C)": fig11["3D"] - fig11["2D Baseline"],
            "worst-case rise / 3D rise":
                (fig11["3D Worstcase"] - fig11["2D Baseline"])
                / (fig11["3D"] - fig11["2D Baseline"]),
            "total gain (%)": paper["table-4"]["total"],
            "stages eliminated (%)": paper["table-4"]["stages_eliminated"],
            "logic power reduction (%)":
                paper["headlines"]["logic_power_reduction_pct"],
            "logic perf gain (%)": paper["headlines"]["logic_perf_gain_pct"],
        }
        for name, value in fig8.items():
            expected[f"{name} peak (C)"] = value
        for name, value in paper["table-4"].items():
            expected[f"{name} gain (%)"] = value
        for name, row in table5.items():
            expected[f"{name} power (W)"] = row["power_w"]
            expected[f"{name} perf (%)"] = row["perf_pct"]
            expected[f"{name} temp (C)"] = row["temp_c"]
        for name in ("Same Temp", "Same Perf."):
            expected[f"{name} power reduction (%)"] = 100.0 * (
                1 - table5[name]["power_w"] / table5["Baseline"]["power_w"]
            )
        checks = no_memory_report.checks + GRADERS["figure-5"](
            FIGURE5, paper["figure-5"]
        )
        graded = [c for c in checks if c.paper is not None]
        assert len(graded) >= 45
        for check in graded:
            assert check.paper == expected[check.name], check


class TestGraders:
    def test_every_grader_is_a_registered_id(self):
        assert set(GRADERS) <= set(list_experiments())

    def test_failed_run_grades_as_one_fail_row(self, monkeypatch, capsys):
        calls = []

        def boom(**kwargs):
            calls.append(kwargs)
            raise RuntimeError("solver exploded")

        experiment = REGISTRY.get("table-4")
        monkeypatch.setitem(REGISTRY._experiments, "table-4",
                            replace(experiment, run=boom))
        (check,) = run_validation(["table-4", "table-4"], nx=12).checks
        assert calls == [{"nx": 12}]
        assert check.grade == FAIL
        assert check.paper is None
        assert "RuntimeError: solver exploded" in check.note
        assert main(["validate", "table-4"]) == 1
        assert "solver exploded" in capsys.readouterr().out

    def test_figure5_pins_the_derived_64mb_cells(self):
        paper = get_experiment("figure-5").paper_values

        def grade(derived):
            result = dict(FIGURE5, cells_derived_64mb=derived)
            (check,) = [c for c in GRADERS["figure-5"](result, paper)
                        if c.name == "64MB cells derived from 32MB"]
            return check.grade

        assert grade(11) == PASS
        assert grade(10) == FAIL
        assert grade(12) == FAIL

    def test_cli_grades_only_the_named_id(self, capsys):
        assert main(["validate", "table-4"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("[")]
        assert len(rows) >= 12
        assert all(line.split()[2] == "table-4" for line in rows)

    def test_cli_unknown_id_names_the_graded_ones(self, capsys):
        assert main(["validate", "figure-42"]) == 2
        err = capsys.readouterr().err
        assert "figure-42" in err
        for experiment_id in GRADERS:
            assert experiment_id in err


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
