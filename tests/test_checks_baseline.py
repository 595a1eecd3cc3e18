"""Tests for the lint engine: speed, selection, verdicts, output shape."""

from repro.checks.diagnostics import CODES
from repro.checks.engine import (
    load_files,
    package_root,
    render_text,
    run_lint,
    to_json,
)


class TestEngine:
    def test_run_lint_on_repo_is_fast_and_baselined(self, tmp_path):
        import time

        start = time.perf_counter()
        report = run_lint()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"lint took {elapsed:.1f}s (budget 5s)"
        # the shipped tree carries zero findings
        assert report.diagnostics == []
        assert report.ok

    def test_select_filters_passes(self):
        report = run_lint(select=["RPL4"])
        assert all(d.code.startswith("RPL4") for d in report.diagnostics)

    def test_injected_violation_fails(self, tmp_path):
        report_clean = run_lint()
        bad = tmp_path / "repro_bad"
        bad.mkdir()
        for pf in ("__init__.py",):
            (bad / pf).write_text("")
        (bad / "mod.py").write_text(
            "import random\nVALUE = random.random()\n"
        )
        report = run_lint(root=bad)
        assert not report.ok
        assert [d.code for d in report.diagnostics] == ["RPL102"]
        del report_clean

    def test_unparseable_file_is_rpl000(self, tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "broken.py").write_text("def f(:\n")
        report = run_lint(root=root)
        assert [d.code for d in report.diagnostics] == ["RPL000"]

    def test_render_text_shape(self):
        report = run_lint()
        text = render_text(report)
        assert "verdict: OK" in text
        assert "6 passes" in text

    def test_json_shape(self):
        payload = to_json(run_lint())
        assert payload["version"] == 1
        assert payload["passes"] == [
            "determinism", "layering", "contracts", "physics",
            "concurrency", "async",
        ]
        assert set(payload["codes"]) == set(CODES)
        assert payload["ok"] is True
        assert payload["counts"]["total"] == 0
        assert payload["diagnostics"] == []

    def test_load_files_maps_modules(self):
        files = load_files(package_root())
        by_rel = {pf.rel: pf.module for pf in files}
        assert by_rel["thermal/solver.py"] == "repro.thermal.solver"
        assert by_rel["__init__.py"] == "repro"
        assert by_rel["traces/kernels/__init__.py"] == "repro.traces.kernels"
