"""Tests for the analysis/reporting utilities and the CLI."""

import re
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.compare import RENDERERS, ComparisonRow, compare_to_paper
from repro.analysis.heatmap import ascii_heatmap
from repro.analysis.tables import (
    format_figure5,
    format_table,
    format_table5,
)
from repro.cli import build_parser, main
from repro.core.experiments import REGISTRY, list_experiments

ROOT = Path(__file__).resolve().parents[1]


class TestFormatTable:
    def test_basic_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "2.50" in text
        assert "30" in text

    def test_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text

    def test_format_figure5(self):
        cpma = {"svm": {"2D 4MB": 3.0, "3D 12MB": 3.0, "3D 32MB": 1.0,
                        "3D 64MB": 1.0}}
        bw = {"svm": {"2D 4MB": 8.0, "3D 12MB": 8.0, "3D 32MB": 0.0,
                      "3D 64MB": 0.0}}
        text = format_figure5(cpma, bw)
        assert "svm" in text
        assert "Avg" in text  # the figure's average group

    def test_format_table5(self):
        rows = [{"name": "Baseline", "vcc": 1.0, "freq": 1.0,
                 "power_w": 147.0, "power_pct": 100.0, "perf_pct": 100.0,
                 "temp_c": 99.0}]
        text = format_table5(rows)
        assert "Baseline" in text
        assert "147.00" in text

    def test_format_table5_handles_missing_temp(self):
        rows = [{"name": "X", "vcc": 1.0, "freq": 1.0, "power_w": 1.0,
                 "power_pct": 1.0, "perf_pct": 1.0, "temp_c": None}]
        assert "-" in format_table5(rows)


class TestAsciiHeatmap:
    def test_renders_extremes(self):
        field = np.array([[0.0, 1.0], [2.0, 10.0]])
        text = ascii_heatmap(field, width=16)
        assert "@" in text       # hottest ramp char
        assert "scale:" in text

    def test_title_and_scale(self):
        field = np.zeros((4, 4))
        text = ascii_heatmap(field, width=8, title="map")
        assert text.splitlines()[0] == "map"
        assert "0.00" in text

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            ascii_heatmap(np.zeros(5))

    def test_explicit_range(self):
        field = np.full((4, 4), 5.0)
        text = ascii_heatmap(field, vmin=0.0, vmax=10.0)
        # Mid-scale value: neither the coolest nor the hottest char.
        body = text.splitlines()[0]
        assert "@" not in body and body.strip() != ""

    def test_orientation_bottom_row_first(self):
        field = np.zeros((8, 8))
        field[0:2, :] = 100.0  # hot stripe at y=0 (bottom)
        text = ascii_heatmap(field, width=8)
        lines = text.splitlines()
        assert "@" in lines[-2]      # bottom rendered last (before scale)
        assert "@" not in lines[0]


class TestCompare:
    def test_comparison_row_deviation(self):
        row = ComparisonRow("x", paper=100.0, measured=110.0, unit="C")
        assert row.deviation_pct == pytest.approx(10.0)
        assert "+10.0%" in row.render()

    def test_comparison_row_no_paper_value(self):
        row = ComparisonRow("x", paper=None, measured=1.0)
        assert row.deviation_pct is None
        assert "-" in row.render()

    def test_compare_to_paper_skips_missing(self):
        text = compare_to_paper(
            {"a": 1.0, "b": 2.0}, {"a": 1.1}, title="T"
        )
        assert "a" in text
        assert "\nb" not in text


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure-5" in out
        assert "table-4" in out

    def test_run_table4(self, capsys):
        assert main(["run", "table-4"]) == 0
        out = capsys.readouterr().out
        assert "total_gain_pct" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "figure-42"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'figure-42'" in err
        assert "table-4" in err  # names every valid id

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_subcommands(self):
        assert set(_subcommands()) == {
            "list", "run", "sweep", "replay", "verify", "serve", "lint",
            "dst", "figures", "validate",
        }

    def test_figures_writes_five_svgs(self, tmp_path, capsys):
        assert main([
            "figures", "--out", str(tmp_path), "--nx", "10", "--scale", "16",
            "--length-factor", "0.02", "--workloads", "svd",
        ]) == 0
        names = ["figure3.svg", "figure5_cpma.svg", "figure5_bw.svg",
                 "figure8.svg", "figure11.svg"]
        for name in names:
            root = ET.parse(tmp_path / name).getroot()
            assert root.tag.endswith("svg")
        assert capsys.readouterr().out.count("wrote ") == len(names)


def _subcommands():
    parser = build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return list(action.choices)


class TestDocumentedCommands:
    """Docs may only name subcommands the parser still has."""

    @pytest.mark.parametrize(
        "doc", ["README.md", ".claude/skills/verify/SKILL.md"]
    )
    def test_every_documented_command_exists(self, doc):
        text = (ROOT / doc).read_text()
        commands = re.findall(r"python -m repro +([a-z][\w-]*)", text)
        assert commands
        missing = sorted(set(commands) - set(_subcommands()))
        assert not missing, f"{doc} names deleted subcommands {missing}"


def _policy(name, exceeded=0):
    return {
        "policy": name, "ceiling_c": 98.6, "tau_s": 4.0, "final_vcc": 0.92,
        "final_power_w": 97.0, "final_peak_c": 98.0, "max_peak_c": 99.0,
        "exceeded_epochs": exceeded, "avg_perf_pct": 105.0,
        "energy_j": 6000.0,
    }


_EPOCH = {"epoch": 0, "t_s": 2.0, "activity": 1.0, "vcc": 0.92,
          "power_w": 97.0, "perf_pct": 108.0, "peak_c": 98.5,
          "throttled": True}
_THERMAL = {"peak_c": 88.5, "coolest_c": 59.2, "hottest_layer": "metal-1"}
_T5_ROW = {"name": "Same Temp", "vcc": 0.92, "freq": 0.92, "power_w": 97.3,
           "power_pct": 66.2, "perf_pct": 108.0, "temp_c": 99.0}
_CONFIGS = ("2D 4MB", "3D 12MB", "3D 32MB", "3D 64MB")

#: A canned result per registered id, shaped like its ``run`` output,
#: and text its human rendering must contain.
CANNED = {
    "figure-3": ({"cu_metal": {60.0: 84.0}, "bond": {60.0: 83.0}},
                 ["measured:", "cu_metal"]),
    "figure-5": ({"cpma": {"svm": dict.fromkeys(_CONFIGS, 2.0)},
                  "bandwidth": {"svm": dict.fromkeys(_CONFIGS, 4.0)},
                  "avg_cpma_reduction_32mb": 0.1,
                  "max_cpma_reduction_32mb": 0.5,
                  "bus_power_reduction_32mb": 0.6},
                 ["Figure 5", "Avg", "max_cpma_reduction_32mb"]),
    "figure-6": (_THERMAL, ["peak_c", "coolest_c", "paper"]),
    "figure-8": (dict.fromkeys(_CONFIGS, 89.0), ["3D 12MB", "paper"]),
    "figure-11": ({"2D Baseline": 98.0, "3D": 108.0, "3D Worstcase": 124.0},
                  ["3D Worstcase", "paper"]),
    "table-4": ({"per_row_gains_pct": {"front_end": 0.2, "fp_wire": 4.1},
                 "total_gain_pct": 15.2, "stages_eliminated_pct": 25.1},
                ["front_end", "total_gain_pct", "stages_eliminated_pct"]),
    "table-5": ({"rows": [_T5_ROW]}, ["Table 5", "Same Temp"]),
    "table5_dynamic": ({**_policy("predictive"), "epochs": [_EPOCH],
                        "converged": dict(_T5_ROW, name="converged")},
                       ["policy=predictive", "perf_pct", "paper"]),
    "dtm_load_spike": ({"ceiling_c": 98.6,
                        "policies": {"none": _policy("none", 12),
                                     "predictive": _policy("predictive")},
                        "control_exceeded_epochs": 12,
                        "dtm_exceeded_epochs": {"predictive": 0}},
                       ["DTM policy comparison", "pareto", "PASS"]),
    "dtm_policy_compare": ({"policies": [_policy("none"),
                                         _policy("predictive")]},
                           ["DTM policy comparison", "pareto"]),
    "headlines": ({"logic_perf_gain_pct": 15.2,
                   "logic_power_reduction_pct": 15.0,
                   "stages_eliminated_pct": 25.1},
                  ["logic_perf_gain_pct", "paper"]),
}


class TestRunRendering:
    def test_every_registered_id_has_a_canned_result(self):
        assert set(CANNED) == set(list_experiments())
        assert set(RENDERERS) <= set(list_experiments())

    @pytest.mark.parametrize("experiment_id", sorted(CANNED))
    def test_run_renders_result(self, experiment_id, monkeypatch, capsys):
        result, expected = CANNED[experiment_id]
        experiment = REGISTRY.get(experiment_id)
        monkeypatch.setitem(
            REGISTRY._experiments, experiment_id,
            replace(experiment, run=lambda **kwargs: result),
        )
        assert main(["run", experiment_id]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{experiment_id}: {experiment.title}")
        for text in expected:
            assert text in out
