"""Failover acceptance test for the subprocess (``local``) backend.

Real worker faults in real worker subprocesses degrade the campaign
without sinking it, and a follow-up ``--resume`` re-runs only the
non-``ok`` fingerprints with results bit-identical to an unfaulted
run.  Whole-executor loss runs on the simulated fabric
(``tests/test_runner_backends.py``).
"""

import json

import pytest

from repro.resilience.faults import FaultInjector
from repro.runner.scheduler import CampaignConfig, RetryPolicy, run_campaign
from repro.runner.tasks import CampaignTask

from tests.campaign_fixtures import FAST_REGISTRY_SPEC

FAST_RETRY = RetryPolicy(max_retries=1, backoff_base_s=0.05)


def _task(task_id, experiment_id="quick", **kwargs):
    return CampaignTask(
        task_id=task_id,
        experiment_id=experiment_id,
        kwargs=kwargs,
        registry_spec=FAST_REGISTRY_SPEC,
    )


def _result_map(report):
    """task_id -> canonical JSON of its result (bit-identity probe)."""
    return {
        t["task_id"]: json.dumps(t["result"], sort_keys=True)
        for t in report.tasks
    }


def _config(journal, **overrides):
    base = dict(
        workers=1,
        task_timeout_s=30.0,
        retry=FAST_RETRY,
        journal_path=str(journal),
        poll_interval_s=0.01,
    )
    base.update(overrides)
    return CampaignConfig(**base)


@pytest.fixture(scope="module")
def clean_reference(tmp_path_factory):
    """Unfaulted local run of the shared task set: the bit-identity bar."""
    tasks = [_task(f"t{i}", value=i) for i in range(4)]
    journal = tmp_path_factory.mktemp("reference") / "j.jsonl"
    report = run_campaign(tasks, _config(journal, workers=4))
    assert report.counts["failed"] == 0
    return tasks, _result_map(report)


class TestLocalBackendFailover:
    def test_worker_chaos_then_resume_bit_identical(
        self, tmp_path, clean_reference
    ):
        tasks, reference = clean_reference
        journal = tmp_path / "j.jsonl"
        injector = FaultInjector(forced_failures={
            "worker-crash:t1": -1,   # crash on every attempt
            "worker-stall:t2": 1,    # stall once, then recover
        })
        faulted = run_campaign(tasks, _config(
            journal, workers=4, injector=injector, heartbeat_timeout_s=1.0,
        ))
        assert faulted.degraded
        assert faulted.counts["failed"] == 1  # only the always-crasher

        resumed = run_campaign(
            tasks, _config(journal, workers=4, resume=True)
        )
        assert resumed.counts["failed"] == 0
        assert resumed.resumed_ok == 3  # only t1 re-ran
        assert _result_map(resumed) == reference
