"""Backend interface + scheduler behavior over the inproc backend.

The inproc backend runs experiments synchronously in the test process,
so every scheduler-level property — lease reclaim, work stealing,
duplicate-completion idempotence, executor-crash failover — is exercised
here deterministically and fast.  The subprocess backends get the same
acceptance treatment (plus a real SIGKILL) in
``tests/test_runner_failover.py``.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.resilience.faults import FaultInjector
from repro.runner.backends import make_backend, parse_backend_spec
from repro.runner.journal import read_journal
from repro.runner.scheduler import CampaignConfig, RetryPolicy, run_campaign
from repro.runner.tasks import CampaignTask
from repro.runner.worker import resolve_registry

from tests.campaign_fixtures import FAST_REGISTRY_SPEC

FAST_RETRY = RetryPolicy(max_retries=1, backoff_base_s=0.01)


def _task(task_id, experiment_id="quick", **kwargs):
    return CampaignTask(
        task_id=task_id,
        experiment_id=experiment_id,
        kwargs=kwargs,
        seed=7,
        registry_spec=FAST_REGISTRY_SPEC,
    )


def _config(tmp_path, **overrides):
    base = dict(
        workers=2,
        task_timeout_s=30.0,
        retry=FAST_RETRY,
        journal_path=str(tmp_path / "journal.jsonl"),
        backend="inproc",
        poll_interval_s=0.001,
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestBackendSpec:
    def test_parse_known_specs(self):
        assert parse_backend_spec("local") == {"name": "local"}
        assert parse_backend_spec("inproc") == {"name": "inproc"}
        assert parse_backend_spec("nodes:3") == {
            "name": "nodes", "n_nodes": 3,
        }

    @pytest.mark.parametrize("spec", [
        "remote", "nodes", "nodes:0", "nodes:x", "local:2",
    ])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_backend_spec(spec)

    def test_config_validates_backend_eagerly(self):
        with pytest.raises(ValueError, match="unknown backend"):
            CampaignConfig(backend="cloud")

    def test_registry_spec_without_colon_rejected(self):
        with pytest.raises(ValueError, match="'repro.core.experiments'"):
            resolve_registry("repro.core.experiments")

    def test_make_backend_dispatches(self):
        config = CampaignConfig(backend="nodes:2")
        assert make_backend("local", config).name == "local"
        assert make_backend("inproc", config).name == "inproc"
        assert make_backend("nodes:2", config).name == "nodes:2"


class TestInprocHappyPath:
    def test_campaign_runs_and_reports_backend(self, tmp_path):
        tasks = [_task("a"), _task("b", "quick-2"), _task("c", value=3)]
        report = run_campaign(tasks, _config(tmp_path))
        assert report.counts == {"ok": 3, "failed": 0, "skipped": 0}
        assert report.backend == "inproc"
        assert not report.degraded
        assert report.per_executor["inproc-0"]["ok"] == 3

    def test_worker_chaos_simulated_and_retried(self, tmp_path):
        injector = FaultInjector(
            forced_failures={"worker-crash:flaky": 1}
        )
        report = run_campaign(
            [_task("flaky")], _config(tmp_path, injector=injector)
        )
        assert report.counts == {"ok": 1, "failed": 0, "skipped": 0}
        assert report.taxonomy == {"crash": 1}
        assert report.retries_used == 1


class TestExecutorCrashFailover:
    def test_crash_reclaims_and_steals_onto_new_incarnation(self, tmp_path):
        tasks = [_task(f"t{i}", value=i) for i in range(3)]
        injector = FaultInjector(forced_failures={"executor-crash": 1})
        report = run_campaign(
            tasks, _config(tmp_path, workers=1, injector=injector)
        )
        # Every task completes despite the executor dying with work.
        assert report.counts == {"ok": 3, "failed": 0, "skipped": 0}
        assert report.executors_lost == 1
        assert report.leases_reclaimed >= 1
        assert report.work_stolen >= 1
        assert report.taxonomy.get("executor-lost", 0) >= 1
        # Losing an executor is degraded even though nothing failed.
        assert report.degraded and report.counts["failed"] == 0
        # The stolen work landed on the next incarnation.
        assert report.per_executor["inproc-1"]["ok"] >= 1

    def test_reclaim_budget_finalizes_unlucky_task(self, tmp_path):
        injector = FaultInjector(forced_failures={"executor-crash": -1})
        report = run_campaign(
            [_task("doomed")],
            _config(
                tmp_path, workers=1, injector=injector,
                lease_reclaim_budget=2,
            ),
        )
        entry = report.tasks[0]
        assert entry["status"] == "executor-lost"
        assert report.counts["failed"] == 1
        assert report.leases_reclaimed == 3  # budget + the final one
        assert report.degraded


class TestDuplicateCompletionIdempotence:
    """Two executors complete the same fingerprint; it counts once.

    Since lease fencing landed, a completion flushed by a healing
    partition *after* its lease was reclaimed carries a stale epoch and
    is journaled ``fenced`` (a zombie write, rejected), not
    ``duplicate`` — the fresh attempt's ``ok`` is the one that counts.
    """

    def _partition_campaign(self, tmp_path):
        tasks = [_task(f"t{i}", value=i) for i in range(2)]
        injector = FaultInjector(forced_failures={"partition": 1})
        config = _config(
            tmp_path,
            workers=1,
            injector=injector,
            # TTL far shorter than the simulated partition, so leases
            # expire mid-blackhole and the work is re-run before the
            # partitioned executor's completions flush.
            lease_ttl_s=0.001,
        )
        return tasks, run_campaign(tasks, config)

    def test_first_fresh_journaled_ok_wins(self, tmp_path):
        tasks, report = self._partition_campaign(tmp_path)
        # The healed partition's late completions ran under reclaimed
        # leases: every one is fenced out of aggregation.
        assert report.fenced_completions >= 1
        # The report counts each task exactly once, all ok.
        assert report.counts == {"ok": 2, "failed": 0, "skipped": 0}
        assert len(report.tasks) == 2

    def test_fenced_journaled_for_audit_not_resume(self, tmp_path):
        tasks, report = self._partition_campaign(tmp_path)
        entries, torn = read_journal(report.journal_path)
        assert torn == 0
        for task in tasks:
            ok_lines = [
                e for e in entries
                if e["fingerprint"] == task.fingerprint
                and e["status"] == "ok"
            ]
            winners = [
                e for e in ok_lines
                if not e.get("duplicate") and not e.get("fenced")
            ]
            zombies = [e for e in ok_lines if e.get("fenced")]
            assert len(winners) == 1
            assert winners[0].get("lease_epoch", 0) >= 1
            for zombie in zombies:
                # Audit lines name the zombie and its stale token.
                assert zombie["executor"] != ""
                assert zombie["lease_epoch"] < winners[0]["lease_epoch"]
        # Resume trusts exactly the winners: nothing re-runs.
        resumed = run_campaign(
            tasks, _config(tmp_path, resume=True)
        )
        assert resumed.counts == {"ok": 2, "failed": 0, "skipped": 2}

    def test_repro_verify_passes_on_duplicate_journal(self, tmp_path, capsys):
        _tasks, report = self._partition_campaign(tmp_path)
        assert cli_main(["verify", report.journal_path]) == 0
        assert "CRC failure" in capsys.readouterr().out


class TestDuplicateDelivery:
    def test_ghost_delivery_discarded_from_aggregation(self, tmp_path):
        tasks = [_task("twice"), _task("once", value=2)]
        injector = FaultInjector(
            forced_failures={"duplicate-delivery:twice": 1}
        )
        report = run_campaign(tasks, _config(tmp_path, injector=injector))
        assert report.counts == {"ok": 2, "failed": 0, "skipped": 0}
        assert report.duplicate_completions == 1
        assert not report.degraded  # both copies agreed; nothing lost


class TestLeaseStall:
    def test_stalled_renewals_expire_and_work_is_rerun(self, tmp_path):
        # t0 sleeps for well over the lease TTL, so with renewals
        # stalled the queued t1's lease is guaranteed to expire while
        # t0 executes (workers=2 claims both leases up front; the
        # backend runs one task per poll).
        tasks = [_task("t0", "slow", sleep_s=0.05), _task("t1", value=1)]
        injector = FaultInjector(forced_failures={"lease-stall": 1})
        report = run_campaign(
            tasks,
            _config(
                tmp_path, workers=2, injector=injector, lease_ttl_s=0.01,
            ),
        )
        assert report.counts == {"ok": 2, "failed": 0, "skipped": 0}
        assert report.leases_reclaimed >= 1


class TestBitIdenticalResume:
    """Acceptance: chaos + resume == unfaulted run, bit for bit."""

    @staticmethod
    def _result_map(report):
        return {
            t["task_id"]: json.dumps(t["result"], sort_keys=True)
            for t in report.tasks
        }

    def test_inproc_crash_then_resume_matches_clean_run(self, tmp_path):
        tasks = [_task(f"t{i}", value=i) for i in range(3)]
        clean = run_campaign(tasks, _config(tmp_path / "clean"))

        injector = FaultInjector(forced_failures={
            "executor-crash": 1,
            "worker-crash:t1": 1,
        })
        faulted = run_campaign(
            tasks,
            _config(
                tmp_path / "chaos", workers=1, injector=injector,
                retry=RetryPolicy(max_retries=0),
            ),
        )
        assert faulted.degraded  # executor loss and/or the failed task
        resumed = run_campaign(
            tasks, _config(tmp_path / "chaos", resume=True)
        )
        assert resumed.counts["failed"] == 0
        assert self._result_map(resumed) == self._result_map(clean)
        # Fingerprints (the identity of what ran) match too.
        assert {t["fingerprint"] for t in resumed.tasks} == {
            t["fingerprint"] for t in clean.tasks
        }


class TestNodeClose:
    """Node.close() releases the control socket deterministically.

    Without it the scheduler only notices a cleanly exiting node when
    its heartbeats stop — a full lease-timeout later.
    """

    def test_close_releases_control_socket(self, tmp_path):
        import argparse
        import socket

        from repro.runner.node import Node

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        node = None
        conn = None
        try:
            node = Node(argparse.Namespace(
                node_id="n1",
                workers=1,
                poll_interval=0.02,
                chaos="",
                scratch=str(tmp_path),
                heartbeat_timeout=5.0,
                connect=port,
            ))
            conn, _addr = listener.accept()
            conn.settimeout(5.0)
            assert node.sock.fileno() != -1
            node.close()
            assert node.sock.fileno() == -1
            node.close()  # idempotent
            # the scheduler side sees EOF immediately, not a timeout
            assert conn.recv(1024) == b""
        finally:
            if conn is not None:
                conn.close()
            listener.close()
            if node is not None:
                node.pool.kill_all(grace_s=0.1)
