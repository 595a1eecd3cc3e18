"""Backend interface + scheduler fault behavior.

The scheduler's executor-fault properties — lease reclaim, work
stealing, the reclaim budget, fenced zombie completions, stalled
renewals and chaos-then-resume bit-identity — run on the deterministic
simulation fabric (:class:`repro.dst.fabric.SimFabric`) under a
hand-written :class:`~repro.dst.schedule.FaultSchedule` and a
:class:`~repro.dst.clock.SimClock`: exact and fast, with executor ids
``sim<slot>.g<incarnation>``.  The scheduler-injected duplicate
delivery runs on the ``local`` pool; real worker faults there are in
``tests/test_runner_failover.py``.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.dst.clock import SimClock
from repro.dst.fabric import SimFabric, SimWorld
from repro.dst.mutations import apply_mutation
from repro.dst.schedule import FaultEvent, FaultSchedule
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


def _run_on_fabric(tasks, config, events, n_executors=1):
    """Run *tasks* on a SimFabric that realizes *events* on virtual time.

    *events* are ``(poll, executor slot, kind[, arg])`` tuples.
    """
    config.clock = SimClock()
    schedule = FaultSchedule([
        FaultEvent(step, f"executor:{slot}", kind, *arg)
        for step, slot, kind, *arg in events
    ])
    world = SimWorld(seed=0, schedule=schedule, clock=config.clock)
    fabric = SimFabric(config, world, n_executors=n_executors)
    return run_campaign(tasks, config, backend=fabric)


class TestBackendSpec:
    def test_parse_known_specs(self):
        assert parse_backend_spec("local") == "local"
        assert parse_backend_spec("inproc") == "inproc"

    @pytest.mark.parametrize("spec", [
        "remote", "nodes", "nodes:0", "nodes:x", "nodes:3", "local:2",
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
        config = CampaignConfig(backend="inproc")
        assert make_backend("local", config).name == "local"
        assert make_backend("inproc", config).name == "inproc"


class TestInprocHappyPath:
    def test_campaign_runs_and_reports_backend(self, tmp_path):
        tasks = [_task("a"), _task("b", "quick-2"), _task("c", value=3)]
        report = run_campaign(tasks, _config(tmp_path))
        assert report.counts == {"ok": 3, "failed": 0, "skipped": 0}
        assert report.backend == "inproc"
        assert not report.degraded
        assert report.per_executor["inproc-0"]["ok"] == 3

    def test_injector_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="inproc backend injects no"):
            _config(tmp_path, injector=FaultInjector(
                forced_failures={"worker-crash": 1},
            ))

    def test_sweep_chaos_on_inproc_is_usage_error(self, tmp_path, capsys):
        code = cli_main([
            "sweep", "table-4", "--backend", "inproc",
            "--chaos-crash", "0.5",
            "--journal", str(tmp_path / "j.jsonl"),
        ])
        assert code == 2
        assert "injects no faults" in capsys.readouterr().err
        assert not (tmp_path / "j.jsonl").exists()


class TestRetiredSpellings:
    """The socket backend and its executor chaos modes are gone: each
    old spelling is a usage error that leaves no journal behind."""

    @pytest.mark.parametrize("flags", [
        ["--backend", "nodes:2"],
        ["--chaos-force", "executor-crash::1"],
        ["--chaos-force", "partition:node-0"],
        ["--chaos-force", "lease-stall"],
    ], ids=["backend", "executor-crash", "partition", "lease-stall"])
    def test_sweep_exits_2_without_journal(self, tmp_path, flags):
        journal = tmp_path / "j.jsonl"
        code = cli_main(
            ["sweep", "table-4", "--journal", str(journal), *flags]
        )
        assert code == 2
        assert not journal.exists()

    def test_serve_nodes_backend_exits_2_before_bind(self, tmp_path):
        data_dir = tmp_path / "sd"
        code = cli_main([
            "serve", "--port", "0", "--backend", "nodes:2",
            "--data-dir", str(data_dir),
        ])
        assert code == 2
        assert not data_dir.exists()


class TestWorkerChaos:
    def test_worker_chaos_simulated_and_retried(self, tmp_path):
        report = _run_on_fabric(
            [_task("flaky")], _config(tmp_path), [(1, 0, "flaky")],
        )
        assert report.counts == {"ok": 1, "failed": 0, "skipped": 0}
        assert report.taxonomy == {"crash": 1}
        assert report.retries_used == 1


class TestExecutorCrashFailover:
    def test_crash_reclaims_and_steals_onto_new_incarnation(self, tmp_path):
        tasks = [_task(f"t{i}", value=i) for i in range(3)]
        report = _run_on_fabric(
            tasks, _config(tmp_path, workers=1), [(1, 0, "crash")],
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
        assert report.per_executor["sim0.g1"]["ok"] >= 1

    def test_losing_one_of_two_executors_degrades_but_completes(
        self, tmp_path
    ):
        # t0 lands on slot 0 and t1 on slot 1; slot 0 dies holding t0.
        tasks = [_task(f"t{i}", value=i) for i in range(4)]
        report = _run_on_fabric(
            tasks, _config(tmp_path, workers=1), [(1, 0, "crash")],
            n_executors=2,
        )
        assert report.counts == {"ok": 4, "failed": 0, "skipped": 0}
        assert report.executors_lost == 1
        assert report.work_stolen >= 1
        assert report.degraded
        # The executor that never died kept finishing work.
        assert report.per_executor["sim1.g0"]["ok"] >= 1

    def test_reclaim_budget_finalizes_unlucky_task(self, tmp_path):
        # Every incarnation crashes on its first poll, with the task on it.
        report = _run_on_fabric(
            [_task("doomed")],
            _config(tmp_path, workers=1, lease_reclaim_budget=2),
            [(poll, 0, "crash") for poll in range(1, 11)],
        )
        entry = report.tasks[0]
        assert entry["status"] == "executor-lost"
        assert report.counts["failed"] == 1
        assert report.leases_reclaimed == 3  # budget + the final one
        assert report.degraded


class TestDuplicateCompletionIdempotence:
    """Two attempts complete the same fingerprint; it counts once.

    A completion flushed by a healing partition *after* its lease was
    reclaimed carries a stale epoch and is journaled ``fenced`` (a
    zombie write, rejected), not ``duplicate`` — the fresh attempt's
    ``ok`` is the one that counts.
    """

    def _partition_campaign(self, tmp_path):
        tasks = [_task(f"t{i}", value=i) for i in range(2)]
        # t0 is on the one executor when the partition starts.  The TTL
        # is far shorter than one poll, so its lease expires at once;
        # the partition (3 virtual seconds) outlasts the longest
        # simulated service time, so the stale completion is flushed
        # at the heal, before the re-grant is even dispatched.
        config = _config(tmp_path, workers=1, lease_ttl_s=0.001)
        events = [(1, 0, "partition", 60)]
        return tasks, _run_on_fabric(tasks, config, events)

    def test_first_fresh_journaled_ok_wins(self, tmp_path):
        tasks, report = self._partition_campaign(tmp_path)
        # The healed partition's late completions ran under reclaimed
        # leases: every one is fenced out of aggregation.
        assert report.fenced_completions >= 1
        # The report counts each task exactly once, all ok.
        assert report.counts == {"ok": 2, "failed": 0, "skipped": 0}
        assert len(report.tasks) == 2

    def test_unfenced_scheduler_fails_the_port(self, tmp_path):
        # The port still bites: with fencing patched out, the zombie's
        # stale completion is accepted and the test above fails.
        with apply_mutation("drop-fencing"), pytest.raises(AssertionError):
            self.test_first_fresh_journaled_ok_wins(tmp_path)

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
        # The scheduler submits "twice" a second time, whatever the
        # backend; on the local pool both copies run in real workers.
        # "once" waits for a free worker and then outlasts the ghost.
        tasks = [_task("twice"), _task("once", "slow", sleep_s=0.3)]
        injector = FaultInjector(
            forced_failures={"duplicate-delivery:twice": 1}
        )
        report = run_campaign(tasks, _config(
            tmp_path, backend="local", injector=injector,
        ))
        assert report.counts == {"ok": 2, "failed": 0, "skipped": 0}
        assert report.duplicate_completions == 1
        assert not report.degraded  # both copies agreed; nothing lost

    def test_saturated_pool_delivers_ghost_once_a_slot_frees(
        self, tmp_path
    ):
        # Both workers are busy when "twice" is dispatched second, so
        # the ghost must wait for a free worker rather than be dropped
        # after the injector's budget was spent on it.
        tasks = [_task("once"), _task("twice", value=1)]
        injector = FaultInjector(
            forced_failures={"duplicate-delivery:twice": 1}
        )
        report = run_campaign(tasks, _config(
            tmp_path, backend="local", injector=injector,
        ))
        assert report.counts == {"ok": 2, "failed": 0, "skipped": 0}
        assert report.duplicate_completions == 1
        assert injector.forced_failures["duplicate-delivery:twice"] == 0
        duplicates = [
            entry for entry in read_journal(tmp_path / "journal.jsonl")[0]
            if entry.get("duplicate")
        ]
        assert [entry["task_id"] for entry in duplicates] == ["twice"]


class TestLeaseStall:
    def test_stalled_renewals_expire_and_work_is_rerun(self, tmp_path):
        # t0 lands on sim0, t1 on sim1; sim1 stops renewing at its
        # first poll.  The TTL is shorter than one poll, so t1's lease
        # expires and the work is re-run on sim0, which keeps renewing.
        tasks = [_task("t0"), _task("t1", value=1)]
        report = _run_on_fabric(
            tasks,
            _config(tmp_path, workers=1, lease_ttl_s=0.01),
            [(1, 1, "stall")],
            n_executors=2,
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

    def test_crash_then_resume_matches_clean_run(self, tmp_path):
        tasks = [_task(f"t{i}", value=i) for i in range(3)]
        clean = run_campaign(tasks, _config(tmp_path / "clean"))

        # The executor crashes with t0 on it; its next incarnation
        # drops the first result it finishes, and no retry is left.
        faulted = _run_on_fabric(
            tasks,
            _config(
                tmp_path / "chaos", workers=1,
                retry=RetryPolicy(max_retries=0),
            ),
            [(1, 0, "crash"), (1, 0, "flaky")],
        )
        assert faulted.degraded  # executor loss and/or the failed task
        resumed = run_campaign(
            tasks, _config(tmp_path / "chaos", resume=True)
        )
        assert resumed.counts["failed"] == 0
        # The loss belongs to the faulted run, not to its resume.
        assert not resumed.degraded
        assert self._result_map(resumed) == self._result_map(clean)
        # Fingerprints (the identity of what ran) match too.
        assert {t["fingerprint"] for t in resumed.tasks} == {
            t["fingerprint"] for t in clean.tasks
        }
