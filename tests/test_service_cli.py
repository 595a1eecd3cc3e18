"""CLI-level tests for the service PR: batch ``repro verify``, the
``repro serve`` command, and the backend tallies in ``sweep --json``."""

import http.client
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.oracles.integrity import attach_crc
from repro.resilience.checkpoint import save_checkpoint
from repro.resilience.faults import FaultInjector
from repro.runner.journal import Journal
from repro.runner.scheduler import CampaignReport

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


def _write_good_journal(path):
    journal = Journal(path)
    journal.append(attach_crc({
        "v": 1, "fingerprint": "ab12", "status": "ok", "event": "x",
    }))
    journal.close()


class TestVerifyBatch:
    def _populate(self, root):
        save_checkpoint("t", {"x": 1}, root / "good.ckpt")
        _write_good_journal(root / "good.jsonl")
        (root / "sub").mkdir()
        save_checkpoint("t", {"y": 2}, root / "sub" / "nested.ckpt")
        # Quarantined and temporary artifacts are skipped, not corrupt.
        (root / "old.result.quarantined").write_bytes(b"\x00garbage")
        (root / "inflight.tmp").write_bytes(b"partial")
        (root / "empty.jsonl").write_bytes(b"")

    def test_clean_directory_exits_zero(self, tmp_path):
        self._populate(tmp_path)
        proc = run_cli("verify", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "3 ok" in proc.stdout
        assert "0 corrupt" in proc.stdout
        assert "3 skipped" in proc.stdout
        assert "CORRUPT" not in proc.stdout

    def test_corrupt_item_exits_one_with_per_file_report(self, tmp_path):
        self._populate(tmp_path)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint("t", {"z": 3}, bad)
        FaultInjector(seed=1).flip_file_bits(
            str(bad), n_flips=4, offset_min=16
        )
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"not": "a crc journal"}\n')
        proc = run_cli("verify", str(tmp_path))
        assert proc.returncode == 1
        assert "2 corrupt" in proc.stdout
        # Per-file report names each corrupt artifact.
        assert f"CORRUPT {bad}" in proc.stdout
        assert f"CORRUPT {torn}" in proc.stdout
        assert "CORRUPT artifact(s)" in proc.stderr

    def test_single_file_mode_unchanged(self, tmp_path):
        good = tmp_path / "one.ckpt"
        save_checkpoint("t", {"x": 1}, good)
        proc = run_cli("verify", str(good))
        assert proc.returncode == 0
        assert "checkpoint OK" in proc.stdout

    def test_service_result_cache_verifies_as_a_directory(self, tmp_path):
        from tests.test_service_resultcache import make_entry
        from repro.service.resultcache import ResultCache

        cache = ResultCache(tmp_path / "results")
        cache.store("deadbeefcafef00d", make_entry())
        proc = run_cli("verify", str(tmp_path / "results"))
        assert proc.returncode == 0
        assert "1 ok" in proc.stdout


class TestServeCommand:
    def test_invalid_config_exits_two(self, tmp_path):
        proc = run_cli("serve", "--breaker-threshold", "0",
                       "--data-dir", str(tmp_path))
        assert proc.returncode == 2
        assert "serve:" in proc.stderr

    def test_unknown_chaos_mode_exits_two(self, tmp_path):
        proc = run_cli("serve", "--chaos-force", "explode",
                       "--data-dir", str(tmp_path))
        assert proc.returncode == 2
        assert "unknown chaos mode" in proc.stderr

    def test_boots_and_answers_healthz(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--data-dir", str(tmp_path / "svc"),
             "--registry", "tests.campaign_fixtures:FAST_REGISTRY"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "repro service on http://" in line
            port = int(line.split("http://127.0.0.1:")[1].split(" ")[0])
            deadline = time.monotonic() + 20
            status = None
            while time.monotonic() < deadline:
                try:
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=5
                    )
                    conn.request("GET", "/healthz")
                    status = conn.getresponse().status
                    conn.close()
                    break
                except OSError:
                    time.sleep(0.1)
            assert status == 200
        finally:
            proc.terminate()
            proc.wait(timeout=15)


class TestBackendTallies:
    def test_report_to_dict_groups_backend_tallies(self):
        report = CampaignReport(
            backend="nodes:2",
            executors_lost=1,
            leases_reclaimed=2,
            work_stolen=2,
            duplicate_completions=1,
            fenced_completions=1,
            per_executor={"node-0": {"ok": 3, "failed": 1}},
        )
        tallies = report.to_dict()["backend_tallies"]
        assert tallies == {
            "backend": "nodes:2",
            "executors_lost": 1,
            "leases_reclaimed": 2,
            "work_stolen": 2,
            "duplicates_discarded": 1,
            "fenced_discarded": 1,
            "per_executor": {"node-0": {"ok": 3, "failed": 1}},
        }

    def test_report_to_dict_key_order(self):
        assert list(CampaignReport().to_dict()) == [
            "tasks", "counts", "taxonomy", "retries_used", "wall_clock_s",
            "degraded", "degraded_solves", "journal_path", "resumed_ok",
            "torn_journal_lines", "corrupt_journal_lines", "stale_resume",
            "oracle_checks", "oracle_violations", "backend",
            "executors_lost", "leases_reclaimed", "duplicate_completions",
            "fenced_completions", "work_stolen", "per_executor",
            "backend_tallies",
        ]

    def test_sweep_json_emits_backend_tallies(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        proc = run_cli(
            "sweep", "table-4", "--backend", "inproc",
            "--journal", str(journal), "--json",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        tallies = report["backend_tallies"]
        assert tallies["backend"] == "inproc"
        assert tallies["executors_lost"] == 0
        assert "per_executor" in tallies
