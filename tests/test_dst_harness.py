"""Deterministic-simulation harness: clocks, schedules, histories.

The properties that make DST trustworthy as a testing instrument:
schedules derive from seeds alone, events fire exactly once, a whole
history is bit-reproducible (journal bytes and normalized report hash
to the same digests on every run), crash/restart happens *inside* a
history, and the committed known-good artifact replays identically —
the ``repro dst --replay`` smoke contract.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.dst import (
    FaultEvent,
    FaultSchedule,
    generate_schedule,
    load_artifact,
    replay,
    run_history,
    save_artifact,
)
from repro.dst.clock import SimClock
from repro.dst.fabric import SimCrash, SimWorld
from repro.dst.harness import SimJournal, explore
from repro.dst.workload import expected_result, make_tasks
from repro.oracles.protocol import (
    breaker_transition_problems,
    journal_protocol_problems,
    report_conservation_problems,
    service_response_problems,
)
from repro.runner.journal import scan_journal
from repro.service import handlers
from repro.service.middleware import Response, shed

KNOWN_GOOD = "tests/data/dst_known_good.json"


class TestSimClock:
    def test_virtual_time_only_moves_when_told(self):
        clock = SimClock()
        assert clock.monotonic() == 0.0
        clock.advance(1.5)
        clock.sleep(0.25)
        assert clock.monotonic() == pytest.approx(1.75)
        assert clock.sleeps == 1

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

    def test_never_touches_wall_clock(self):
        # The whole point: importing the sim clock must not drag in the
        # host's time module (RPL103 wall-clock lint enforces this too).
        import repro.dst.clock as clock_mod

        assert "time" not in vars(clock_mod)


class TestFaultSchedule:
    def test_same_seed_same_schedule(self):
        a = generate_schedule(11, "quick")
        b = generate_schedule(11, "quick")
        assert [e.to_dict() for e in a.events] == [
            e.to_dict() for e in b.events
        ]

    def test_different_seeds_eventually_differ(self):
        base = [e.to_dict() for e in generate_schedule(11, "quick").events]
        assert any(
            [e.to_dict() for e in generate_schedule(s, "quick").events]
            != base
            for s in range(12, 20)
        )

    def test_events_fire_at_most_once(self):
        schedule = FaultSchedule([FaultEvent(5, "executor:0", "crash")])
        assert schedule.fire("executor:0", 4) == []
        assert len(schedule.fire("executor:0", 5)) == 1
        assert schedule.fire("executor:0", 99) == []
        schedule.reset()
        assert len(schedule.fire("executor:0", 5)) == 1

    def test_late_delivery_never_drops(self):
        # A site that skips past the armed step still receives the
        # event at its next occurrence — shrinking cannot hide faults
        # by shifting counters.
        schedule = FaultSchedule([FaultEvent(3, "clock", "clock-jump", 2.0)])
        assert len(schedule.fire("clock", 40)) == 1
        assert schedule.pending() == []

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown DST profile"):
            generate_schedule(0, "nope")

    def test_artifact_round_trip(self, tmp_path):
        schedule = generate_schedule(7, "quick")
        path = save_artifact(tmp_path / "a.json", 7, schedule,
                             violations=["x"])
        loaded = load_artifact(path)
        assert loaded["seed"] == 7 and loaded["violations"] == ["x"]
        assert [e.to_dict() for e in loaded["schedule"].events] == [
            e.to_dict() for e in schedule.events
        ]

    def test_artifact_version_gate(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"version": 99, "seed": 1, "events": []}))
        with pytest.raises(ValueError, match="version"):
            load_artifact(path)


class TestHistories:
    def test_clean_seed_batch(self):
        for seed in range(10):
            history = run_history(seed)
            assert history.ok, (
                f"seed {seed} violated on main: {history.violations}"
            )

    def test_bit_identical_across_runs(self):
        a = run_history(7)
        b = run_history(7)
        assert a.journal_sha == b.journal_sha != "missing"
        assert a.report_sha == b.report_sha != ""
        assert a.violations == b.violations == []

    def test_crash_restart_inside_history(self):
        # Seed 26's schedule tears journal append 3, killing the
        # simulated process; the harness resumes and the history still
        # converges with every invariant intact.
        history = run_history(26)
        assert history.crashes == 1
        assert history.ok, history.violations
        assert any("torn journal write" in line
                   for line in history.events_log)

    def test_workload_results_are_pure(self):
        for task in make_tasks(4):
            expected = expected_result(task.experiment_id, task.kwargs)
            assert expected == expected_result(
                task.experiment_id, task.kwargs
            )
            assert set(expected) == {"value", "tag"}

    def test_explore_reports_clean_batch(self):
        outcome = explore(3, seed_base=0)
        assert outcome["ok"] is True
        assert outcome["explored"] == 3
        assert outcome["failing_seed"] is None


class TestSimJournalTornWrite:
    def test_due_event_tears_line_and_crashes(self, tmp_path):
        schedule = FaultSchedule(
            [FaultEvent(1, "journal", "torn-write", 0.5)]
        )
        world = SimWorld(0, schedule, SimClock())
        path = tmp_path / "j.jsonl"
        journal = SimJournal(path, world)
        entry = {"fingerprint": "ab" * 32, "status": "ok", "final": True}
        journal.append(dict(entry))  # append 0: clean
        with pytest.raises(SimCrash):
            journal.append(dict(entry))  # append 1: torn mid-line
        entries, torn, crc_failed = scan_journal(path)
        assert (len(entries), torn, crc_failed) == (1, 1, 0)


class TestProtocolPredicates:
    def _ok(self, fp, epoch, **extra):
        return {"fingerprint": fp, "status": "ok", "final": True,
                "lease_epoch": epoch, **extra}

    def test_double_count_flagged(self):
        fp = "aa" * 32
        problems = journal_protocol_problems(
            [self._ok(fp, 1), self._ok(fp, 2)]
        )
        assert any("double-counted" in p for p in problems)

    def test_zombie_write_behind_fence_flagged(self):
        fp = "bb" * 32
        entries = [
            {"fingerprint": fp, "status": "executor-lost",
             "lease_epoch": 2, "final": False},
            self._ok(fp, 1),
        ]
        problems = journal_protocol_problems(entries)
        assert any("zombie write" in p for p in problems)

    def test_fenced_audit_line_is_legal(self):
        fp = "cc" * 32
        entries = [
            {"fingerprint": fp, "status": "executor-lost",
             "lease_epoch": 1, "final": False},
            self._ok(fp, 1, fenced=True),
            self._ok(fp, 2),
        ]
        assert journal_protocol_problems(entries, submitted=[fp]) == []

    def test_lost_task_flagged(self):
        problems = journal_protocol_problems([], submitted=["dd" * 32])
        assert any("lost" in p for p in problems)

    def test_breaker_legality(self):
        assert breaker_transition_problems(
            [("failure", "closed", "open"), ("allow", "open", "half-open"),
             ("success", "half-open", "closed")]
        ) == []
        bad = breaker_transition_problems([("failure", "open", "closed")])
        assert any("illegal" in p for p in bad)

    def test_service_contract_statuses(self):
        clean = [Response(200), Response(400), Response(404),
                 shed(429, "slow down", 0.5), shed(503, "full", 1.0)]
        assert service_response_problems(clean) == []
        # 202 and 408 were legal for the old simulated gateway; the
        # service's request path never answers either.
        for status in (202, 408):
            problems = service_response_problems([Response(status)])
            assert any("outside" in p for p in problems), status

    def test_shed_without_retry_after_flagged(self):
        problems = service_response_problems([Response(429)])
        assert any("Retry-After" in p for p in problems)

    def test_report_conservation(self):
        report = {
            "counts": {"ok": 2, "failed": 0, "skipped": 1},
            "tasks": [{"fingerprint": "a"}, {"fingerprint": "b"}],
        }
        assert report_conservation_problems(report, 2) == []
        assert report_conservation_problems(report, 3)


_HANDLE_SUBMIT = handlers.handle_submit
_HANDLE_JOB_GET = handlers.handle_job_get


def _unguarded_submit(app, request, now):
    # handle_submit without the try around _parse_submission: a bad
    # body's ValueError reaches the error guard, which sheds 503.
    handlers._parse_submission(app, request)
    return _HANDLE_SUBMIT(app, request, now)


def _unknown_job_500(app, job_id, now):
    response = _HANDLE_JOB_GET(app, job_id, now)
    return Response(500) if response.status == 404 else response


class TestServiceContract:
    """The service segment fails a history whose service answers a
    malformed submission or an unknown job outside the contract."""

    @pytest.mark.parametrize("attribute, planted", [
        ("handle_submit", _unguarded_submit),
        ("handle_job_get", _unknown_job_500),
    ])
    def test_planted_service_bug_is_a_violation(
        self, monkeypatch, attribute, planted
    ):
        monkeypatch.setattr(handlers, attribute, planted)
        history = run_history(0)
        assert any("service contract" in v for v in history.violations), (
            history.violations
        )


class TestReplaySmoke:
    """Satellite: the committed artifact replays bit-identically."""

    def test_known_good_artifact_replays_identically(self):
        first = replay(KNOWN_GOOD)
        second = replay(KNOWN_GOOD)
        assert first.ok and second.ok
        assert first.crashes == second.crashes == 1
        assert first.journal_sha == second.journal_sha != "missing"
        assert first.report_sha == second.report_sha != ""

    def test_cli_replay_exit_code_and_digests(self, capsys):
        assert cli_main(["dst", "--replay", KNOWN_GOOD]) == 0
        out_a = capsys.readouterr().out
        assert cli_main(["dst", "--replay", KNOWN_GOOD]) == 0
        out_b = capsys.readouterr().out

        def digests(text):
            return [line for line in text.splitlines()
                    if "sha256" in line]

        assert digests(out_a) == digests(out_b)
        assert len(digests(out_a)) >= 2


class TestCli:
    def test_dst_explore_smoke(self, capsys):
        assert cli_main(["dst", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "no invariant violations" in out

    def test_dst_json_output(self, capsys):
        assert cli_main(["dst", "--seeds", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["explored"] == 2
