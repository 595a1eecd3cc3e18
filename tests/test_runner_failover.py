"""Failover acceptance tests for the subprocess executor backends.

The issue's acceptance bar, verified per backend: killing any single
executor mid-campaign yields a degraded-but-complete report, and a
follow-up ``--resume`` re-runs only the non-``ok`` fingerprints with
results bit-identical to an unfaulted run.  ``nodes:N`` gets both an
injected executor crash and a genuine ``SIGKILL`` of a node process
discovered at runtime — no cooperation from the victim.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.resilience.faults import FaultInjector
from repro.runner.backends.nodes import NodesBackend
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


class TestNodesBackendFailover:
    def test_injected_executor_crash_steals_and_resumes(
        self, tmp_path, clean_reference
    ):
        tasks, reference = clean_reference
        journal = tmp_path / "j.jsonl"
        injector = FaultInjector(forced_failures={"executor-crash": 1})
        faulted = run_campaign(tasks, _config(
            journal, backend="nodes:2", workers=2, injector=injector,
            lease_ttl_s=5.0,
        ))
        # Degraded-but-complete: the dead node's work was stolen.
        assert faulted.executors_lost == 1
        assert faulted.degraded
        assert faulted.counts["ok"] + faulted.counts["failed"] == 4
        assert faulted.leases_reclaimed >= 1

        resumed = run_campaign(
            tasks, _config(journal, backend="nodes:2", workers=2,
                           resume=True)
        )
        assert resumed.counts["failed"] == 0
        assert not resumed.degraded
        assert _result_map(resumed) == reference

    def test_sigkill_node_mid_campaign(self, tmp_path, clean_reference):
        """A genuine kill -9, aimed at a node that holds leases."""
        _tasks, reference = clean_reference
        # The quick tasks carry the bit-identity check (same
        # experiment/kwargs as the reference set); two slow decoys
        # with distinct kwargs widen the window for killing a node that
        # is mid-task.
        tasks = [_task(f"t{i}", value=i) for i in range(4)] + [
            _task(f"slow{i}", "slow", sleep_s=1.5 + 0.1 * i)
            for i in range(2)
        ]
        journal = tmp_path / "j.jsonl"
        config = _config(
            journal, backend="nodes:2", workers=1,
            scratch_dir=str(tmp_path / "scratch"), lease_ttl_s=10.0,
        )
        backend = NodesBackend(config, n_nodes=2)
        done = {}

        def campaign():
            done["report"] = run_campaign(tasks, config, backend=backend)

        runner = threading.Thread(target=campaign)
        runner.start()
        # Wait until some node actually holds in-flight work, then
        # SIGKILL that node — the scheduler only learns via socket EOF.
        victim_pid = None
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and victim_pid is None:
            for state in backend._nodes.values():
                if not state.dead and state.outstanding > 0 and state.pid:
                    victim_pid = state.pid
                    break
            time.sleep(0.02)
        assert victim_pid is not None, "no node ever took work"
        os.kill(victim_pid, signal.SIGKILL)
        runner.join(timeout=120.0)
        assert not runner.is_alive()
        report = done["report"]

        assert report.executors_lost == 1
        assert report.degraded  # executor loss degrades, by contract
        assert report.counts["ok"] + report.counts["failed"] == 6
        # The survivor finished the campaign alone.
        survivors = [
            executor for executor, tallies in report.per_executor.items()
            if tallies.get("ok")
        ]
        assert survivors

        resumed = run_campaign(tasks, _config(
            journal, backend="nodes:2", workers=2, resume=True,
        ))
        assert resumed.counts["failed"] == 0
        assert not resumed.degraded
        resumed_map = _result_map(resumed)
        # Bit-identical to the unfaulted reference on the shared tasks.
        for task_id, expected in reference.items():
            assert resumed_map[task_id] == expected
