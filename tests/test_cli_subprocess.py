"""Subprocess-level smoke tests for the ``repro`` CLI.

Everything here runs ``python -m repro`` in a real child process and
asserts *exit codes and output shape* — the contract scripts and CI
depend on, which in-process `main()` tests cannot fully cover (e.g.
tracebacks from strict mode, argparse exits, the sweep's worker tree).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


class TestList:
    def test_lists_every_artifact(self):
        proc = run_cli("list")
        assert proc.returncode == 0
        for artifact in ("figure-3", "figure-5", "table-4", "headlines"):
            assert artifact in proc.stdout


class TestRun:
    def test_success_exit_zero(self):
        proc = run_cli("run", "table-4")
        assert proc.returncode == 0
        assert "total_gain_pct" in proc.stdout

    def test_success_json_shape(self):
        proc = run_cli("run", "table-4", "--json", "--seed", "5")
        assert proc.returncode == 0
        outcome = json.loads(proc.stdout)
        assert outcome["ok"] is True
        assert outcome["experiment_id"] == "table-4"
        assert outcome["kwargs"] == {"seed": 5}
        assert "seed" not in outcome
        assert outcome["fingerprint"]
        assert "total_gain_pct" in outcome["result"]

    def test_json_outcome_is_byte_identical_across_runs(self):
        # Same fingerprint, same bytes: the outcome carries no wall time.
        first = run_cli("run", "table-4", "--json")
        second = run_cli("run", "table-4", "--json")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_failure_exits_nonzero(self):
        # nx=3 violates the solver's minimum grid; must fail cleanly.
        proc = run_cli("run", "figure-6", "--nx", "3")
        assert proc.returncode == 1
        assert "FAILED" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_failure_json_shape(self):
        proc = run_cli("run", "figure-6", "--nx", "3", "--json")
        assert proc.returncode == 1
        outcome = json.loads(proc.stdout)
        assert outcome["ok"] is False
        assert outcome["error_type"] == "ValueError"
        assert outcome["kwargs"] == {"nx": 3}

    def test_strict_reraises_with_traceback(self):
        proc = run_cli("run", "figure-6", "--nx", "3", "--strict")
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr

    def test_unknown_experiment_exits_nonzero(self):
        # A usage error, like `repro sweep figure-42`: exit 2, no trace.
        proc = run_cli("run", "figure-42")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "known:" in proc.stderr


class TestReplay:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        from repro.traces.generator import TraceGenerator, WorkloadSpec
        from repro.traces.record import write_trace

        path = tmp_path_factory.mktemp("traces") / "small.trace"
        spec = WorkloadSpec("gauss", n_records=4000, seed=3)
        write_trace(TraceGenerator(spec).records(), path)
        return str(path)

    def test_replay_success(self, trace_path):
        proc = run_cli("replay", trace_path)
        assert proc.returncode == 0
        assert "replayed" in proc.stdout
        assert "CPMA" in proc.stdout

    def test_replay_missing_file_fails(self):
        proc = run_cli("replay", "/nonexistent/file.trace")
        assert proc.returncode == 1
        assert "replay failed" in proc.stderr

    @pytest.fixture(scope="class")
    def corrupt_trace_path(self, trace_path, tmp_path_factory):
        # One record repeats its predecessor's uid and one names cpu 5 of
        # a two-cpu machine; both still parse, so only the guard sees them.
        lines = Path(trace_path).read_text().splitlines()
        row = next(i for i in range(1000, len(lines))
                   if lines[i].split()[5] == "-1")
        fields = lines[row].split()
        fields[0] = lines[row - 1].split()[0]
        lines[row] = " ".join(fields)
        fields = lines[2000].split()
        fields[1] = "5"
        lines[2000] = " ".join(fields)
        path = tmp_path_factory.mktemp("traces") / "corrupt.trace"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_replay_lenient_quarantines_corrupt_records(
        self, corrupt_trace_path
    ):
        proc = run_cli("replay", corrupt_trace_path, "--lenient")
        assert proc.returncode == 0, proc.stderr
        assert "quarantined   2 corrupt record(s)" in proc.stdout
        assert "non-monotonic-uid" in proc.stdout
        assert "bad-cpu" in proc.stdout

    def test_replay_strict_fails_on_the_first_corrupt_record(
        self, corrupt_trace_path
    ):
        proc = run_cli("replay", corrupt_trace_path, "--strict")
        assert proc.returncode == 1
        assert "replay failed (TraceCorruptionError)" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestLint:
    def test_shipped_tree_is_clean(self):
        proc = run_cli("lint")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "verdict: OK" in proc.stdout

    def test_injected_violation_exits_two(self, tmp_path):
        bad = tmp_path / "pkg"
        bad.mkdir()
        (bad / "__init__.py").write_text("")
        (bad / "mod.py").write_text("import random\nX = random.random()\n")
        proc = run_cli("lint", "--root", str(bad))
        assert proc.returncode == 2
        assert "RPL102" in proc.stdout
        assert "verdict: VIOLATIONS" in proc.stdout

    def test_json_format_schema(self):
        proc = run_cli("lint", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["version"] == 1
        assert payload["ok"] is True
        assert payload["passes"] == [
            "determinism", "layering", "contracts", "physics", "concurrency",
        ]
        for entry in payload["diagnostics"]:
            assert {"path", "line", "code", "message"} <= set(entry)

    def test_explain_renders_pass_documentation(self):
        proc = run_cli("lint", "--explain", "RPL503")
        assert proc.returncode == 0
        assert "RPL503" in proc.stdout
        assert "why:" in proc.stdout
        assert "example violation:" in proc.stdout
        assert "fix pattern:" in proc.stdout

    def test_explain_accepts_bare_number(self):
        proc = run_cli("lint", "--explain", "601")
        assert proc.returncode == 0
        assert "RPL601" in proc.stdout

    def test_explain_unknown_code_exits_two(self):
        proc = run_cli("lint", "--explain", "RPL999")
        assert proc.returncode == 2
        assert "RPL999" in proc.stdout

    def test_select_rpl5_rpl6_clean(self):
        # The shipped tree carries zero RPL503/RPL504/RPL601 findings.
        proc = run_cli("lint", "--select", "RPL5,RPL6")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_select_narrows_to_one_family(self):
        proc = run_cli("lint", "--select", "RPL4", "--format", "json")
        payload = json.loads(proc.stdout)
        assert all(d["code"].startswith("RPL4")
                   for d in payload["diagnostics"])


class TestSweep:
    def test_healthy_sweep_json_report(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        proc = run_cli(
            "sweep", "table-4", "--workers", "1", "--retries", "0",
            "--journal", str(journal), "--json",
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["degraded"] is False
        assert report["counts"] == {"ok": 1, "failed": 0, "skipped": 0}
        assert journal.exists()
        assert "verdict: OK" in proc.stderr

    def test_chaos_sweep_degrades_then_resumes(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        degraded = run_cli(
            "sweep", "table-4", "headlines", "--retries", "0",
            "--journal", str(journal),
            "--chaos-force", "crash:table-4",
        )
        assert degraded.returncode == 3  # completed, but degraded
        assert "DEGRADED" in degraded.stdout
        assert "crash" in degraded.stdout

        resumed = run_cli(
            "sweep", "table-4", "headlines", "--retries", "0",
            "--journal", str(journal), "--resume", "--json",
        )
        assert resumed.returncode == 0
        report = json.loads(resumed.stdout)
        assert report["counts"]["skipped"] == 1  # headlines reused
        assert report["counts"]["ok"] == 2

    def test_unmatched_pattern_is_usage_error(self, tmp_path):
        proc = run_cli("sweep", "figure-99*",
                       "--journal", str(tmp_path / "j.jsonl"))
        assert proc.returncode == 2
        assert "matches no experiment" in proc.stderr

    def test_resume_without_journal_is_usage_error(self, tmp_path):
        proc = run_cli("sweep", "table-4", "--resume",
                       "--journal", str(tmp_path / "missing.jsonl"))
        assert proc.returncode == 2
        assert "does not exist" in proc.stderr
