"""End-to-end tests for the supervised campaign runner.

These spawn real worker subprocesses, so every campaign here uses the
fast fixture registry (``tests.campaign_fixtures``) and tight budgets.
The acceptance scenario from the issue — one healthy task, one injected
crash, one hang past the timeout, then ``--resume`` re-running only the
failures — is :class:`TestAcceptanceScenario`.
"""

import pytest

from repro.resilience.faults import FaultInjector
from repro.runner.journal import completed_fingerprints, read_journal
from repro.runner.scheduler import CampaignConfig, RetryPolicy, run_campaign
from repro.runner.tasks import CampaignTask

from tests.campaign_fixtures import FAST_REGISTRY_SPEC

#: Fast-failing retry schedule for tests.
FAST_RETRY = RetryPolicy(max_retries=1, backoff_base_s=0.05)


def _task(task_id, experiment_id=None, **kwargs):
    return CampaignTask(
        task_id=task_id,
        experiment_id=experiment_id or task_id,
        kwargs=kwargs,
        registry_spec=FAST_REGISTRY_SPEC,
    )


def _by_id(report):
    return {t["task_id"]: t for t in report.tasks}


class TestAcceptanceScenario:
    """Healthy + crash + hang, then resume re-runs only the failures."""

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        journal = tmp_path_factory.mktemp("campaign") / "journal.jsonl"
        tasks = [
            _task("healthy", "quick"),
            _task("crashy", "quick-2"),
            _task("hanger", "quick", value=7),
        ]
        injector = FaultInjector(forced_failures={
            "worker-crash:crashy": -1,   # crash on every attempt
            "worker-hang:hanger": -1,    # hang on every attempt
        })
        first = run_campaign(tasks, CampaignConfig(
            workers=3,
            task_timeout_s=2.5,
            retry=FAST_RETRY,
            journal_path=str(journal),
            injector=injector,
        ))
        resumed = run_campaign(tasks, CampaignConfig(
            workers=3,
            task_timeout_s=30.0,
            retry=FAST_RETRY,
            journal_path=str(journal),
            resume=True,
        ))
        return journal, first, resumed

    def test_healthy_task_journaled(self, campaign):
        journal, first, _ = campaign
        healthy = _by_id(first)["healthy"]
        assert healthy["status"] == "ok"
        assert healthy["result"]["value"] == 42
        done = completed_fingerprints(read_journal(journal)[0])
        assert _task("healthy", "quick").fingerprint in done

    def test_crash_retried_to_budget_then_final(self, campaign):
        journal, first, _ = campaign
        crashy = _by_id(first)["crashy"]
        assert crashy["status"] == "crash"
        assert crashy["retries_used"] == FAST_RETRY.max_retries
        attempts = [e for e in read_journal(journal)[0]
                    if e["task_id"] == "crashy" and not e.get("resumed")]
        # one initial + max_retries retries, every one a crash
        assert [e["status"] for e in attempts][:2] == ["crash", "crash"]
        assert first.taxonomy["crash"] == 2

    def test_hang_killed_at_wall_timeout(self, campaign):
        _, first, _ = campaign
        hanger = _by_id(first)["hanger"]
        assert hanger["status"] == "timeout"
        assert hanger["elapsed_s"] >= 2.4  # ran the full budget, then died
        assert "wall-clock" in hanger["error"]

    def test_first_report_is_degraded_but_complete(self, campaign):
        _, first, _ = campaign
        assert first.degraded and not first.ok
        assert first.counts == {"ok": 1, "failed": 2, "skipped": 0}
        assert first.retries_used == 2
        assert first.wall_clock_s > 0

    def test_resume_reruns_only_failures(self, campaign):
        _, _, resumed = campaign
        tasks = _by_id(resumed)
        assert tasks["healthy"].get("resumed") is True
        assert tasks["crashy"]["status"] == "ok"
        assert tasks["hanger"]["status"] == "ok"
        assert resumed.resumed_ok == 1
        assert resumed.counts == {"ok": 3, "failed": 0, "skipped": 1}
        assert not resumed.degraded


class TestWatchdog:
    def test_stalled_heartbeat_killed_before_wall_timeout(self, tmp_path):
        tasks = [_task("stalled", "quick")]
        injector = FaultInjector(
            forced_failures={"worker-stall:stalled": -1}
        )
        report = run_campaign(tasks, CampaignConfig(
            workers=1,
            task_timeout_s=60.0,
            heartbeat_timeout_s=1.0,
            retry=RetryPolicy(max_retries=0),
            journal_path=str(tmp_path / "j.jsonl"),
            injector=injector,
        ))
        entry = _by_id(report)["stalled"]
        assert entry["status"] == "worker-dead"
        assert report.wall_clock_s < 20.0  # watchdog, not the 60s budget
        assert report.taxonomy == {"worker-dead": 1}


class TestFailureModes:
    def test_corrupt_result_retried_then_recovers(self, tmp_path):
        tasks = [_task("flaky", "quick")]
        injector = FaultInjector(
            forced_failures={"worker-corrupt-result:flaky": 1}
        )
        report = run_campaign(tasks, CampaignConfig(
            workers=1,
            task_timeout_s=30.0,
            retry=FAST_RETRY,
            journal_path=str(tmp_path / "j.jsonl"),
            injector=injector,
        ))
        entry = _by_id(report)["flaky"]
        assert entry["status"] == "ok"
        assert report.retries_used == 1
        assert report.taxonomy == {"corrupt-result": 1}
        assert not report.degraded

    def test_experiment_error_captured_structurally(self, tmp_path):
        report = run_campaign(
            [_task("boom")],
            CampaignConfig(
                workers=1,
                task_timeout_s=30.0,
                retry=RetryPolicy(max_retries=0),
                journal_path=str(tmp_path / "j.jsonl"),
            ),
        )
        entry = _by_id(report)["boom"]
        assert entry["status"] == "error"
        assert entry["error_type"] == "ValueError"
        assert "intentional fixture failure" in entry["error"]
        assert report.taxonomy == {"ValueError": 1}

    def test_duplicate_task_ids_rejected(self, tmp_path):
        tasks = [_task("same", "quick"), _task("same", "quick-2")]
        with pytest.raises(ValueError, match="duplicate task id"):
            run_campaign(tasks, CampaignConfig(
                journal_path=str(tmp_path / "j.jsonl")
            ))


class TestRetryPolicy:
    def test_deterministic_jitter(self):
        policy = RetryPolicy(max_retries=3, backoff_base_s=0.1)
        a = policy.delay_s("fp-1", 1)
        assert a == policy.delay_s("fp-1", 1)  # reproducible
        assert a != policy.delay_s("fp-2", 1)  # decorrelated across tasks

    def test_exponential_growth(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                             jitter_frac=0.0)
        assert policy.delay_s("fp", 2) == pytest.approx(0.2)
        assert policy.delay_s("fp", 3) == pytest.approx(0.4)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="workers"):
            CampaignConfig(workers=0)
        with pytest.raises(ValueError, match="task_timeout_s"):
            CampaignConfig(task_timeout_s=0)
        with pytest.raises(ValueError, match="heartbeat_timeout_s"):
            CampaignConfig(heartbeat_timeout_s=0.1)
