"""Tests for the append-only campaign journal and task model."""

import hashlib
import json

import pytest

from repro.core.experiments import task_fingerprint
from repro.runner.journal import (
    Journal,
    completed_fingerprints,
    make_entry,
    read_journal,
)
from repro.runner.scheduler import CampaignConfig, entry_is_stale, run_campaign
from repro.runner.tasks import CampaignTask, select_tasks

from tests.campaign_fixtures import FAST_REGISTRY_SPEC


def _entry(task_id="t1", status="ok", attempt=0, **overrides):
    base = dict(
        task_id=task_id,
        experiment_id=task_id,
        fingerprint=task_fingerprint(task_id, {}),
        status=status,
        attempt=attempt,
        final=True,
    )
    base.update(overrides)
    return make_entry(**base)


class TestJournalRoundTrip:
    def test_append_then_read(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(_entry("a"))
            journal.append(_entry("b", status="crash"))
        entries, torn = read_journal(path)
        assert torn == 0
        assert [e["task_id"] for e in entries] == ["a", "b"]
        assert entries[1]["status"] == "crash"

    def test_missing_journal_is_empty(self, tmp_path):
        entries, torn = read_journal(tmp_path / "nope.jsonl")
        assert entries == [] and torn == 0

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="unknown journal status"):
            _entry(status="exploded")

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(_entry("a"))
            journal.append(_entry("b"))
        # Simulate a kill mid-append: truncate inside the last line.
        raw = path.read_bytes()
        path.write_bytes(raw[:-15])
        entries, torn = read_journal(path)
        assert [e["task_id"] for e in entries] == ["a"]
        assert torn == 1

    def test_foreign_lines_counted_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps({"not": "ours"}) + "\n"
            + json.dumps(_entry("good")) + "\n"
            + "complete garbage\n"
        )
        entries, torn = read_journal(path)
        assert len(entries) == 1 and entries[0]["task_id"] == "good"
        assert torn == 2

    def test_future_version_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        future = dict(_entry("future"), v=99)
        path.write_text(json.dumps(future) + "\n")
        entries, torn = read_journal(path)
        assert entries == [] and torn == 1


class TestTornTailRepair:
    """A run killed mid-write leaves a torn final line; the next run's
    appends must not be welded onto it (the bug: the merged line parsed
    as neither record, so the NEW entry silently vanished too)."""

    def test_append_after_torn_tail_preserves_new_entry(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(_entry("a"))
            journal.append(_entry("b"))
        raw = path.read_bytes()
        path.write_bytes(raw[:-15])  # kill mid-append of "b"
        with Journal(path) as journal:
            journal.append(_entry("c"))
        entries, torn = read_journal(path)
        assert [e["task_id"] for e in entries] == ["a", "c"]
        assert torn == 1

    def test_truncation_at_every_byte_offset(self, tmp_path):
        """For any kill point, a resumed append loses at most the one
        torn record — never the resumed run's own entries."""
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(_entry("a"))
            journal.append(_entry("b"))
            journal.append(_entry("c"))
        raw = path.read_bytes()
        first_len = raw.index(b"\n") + 1
        for cut in range(first_len, len(raw) + 1):
            path.write_bytes(raw[:cut])
            with Journal(path) as journal:
                journal.append(_entry("resumed"))
            entries, torn = read_journal(path)
            ids = [e["task_id"] for e in entries]
            assert ids[0] == "a", f"cut at {cut} lost an intact record"
            assert ids[-1] == "resumed", f"cut at {cut} lost the new entry"
            assert torn <= 1, f"cut at {cut} produced {torn} torn lines"

    def test_missing_final_newline_is_a_complete_record(self, tmp_path):
        """Truncating ONLY the trailing newline leaves a parseable record:
        the repair terminates it instead of sacrificing it."""
        path = tmp_path / "j.jsonl"
        fp = task_fingerprint("b", {})
        with Journal(path) as journal:
            journal.append(_entry("a"))
            journal.append(_entry("b", fingerprint=fp))
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])  # drop just the "\n"
        with Journal(path) as journal:
            journal.append(_entry("c"))
        entries, torn = read_journal(path)
        assert [e["task_id"] for e in entries] == ["a", "b", "c"]
        assert torn == 0
        assert fp in completed_fingerprints(entries)

    def test_repair_leaves_empty_and_missing_files_alone(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        with Journal(empty) as journal:
            journal.append(_entry("a"))
        entries, torn = read_journal(empty)
        assert [e["task_id"] for e in entries] == ["a"] and torn == 0

        fresh = tmp_path / "sub" / "fresh.jsonl"
        with Journal(fresh) as journal:
            journal.append(_entry("a"))
        entries, torn = read_journal(fresh)
        assert [e["task_id"] for e in entries] == ["a"] and torn == 0


class TestResumeSemantics:
    def test_completed_keeps_only_ok(self):
        fp_ok = task_fingerprint("a", {"seed": 1})
        fp_bad = task_fingerprint("b", {"seed": 2})
        entries = [
            _entry("a", fingerprint=fp_ok, kwargs={"seed": 1}),
            _entry("b", status="timeout", fingerprint=fp_bad,
                   kwargs={"seed": 2}),
        ]
        done = completed_fingerprints(entries)
        assert set(done) == {fp_ok}

    def test_failure_then_success_resumes_as_done(self):
        fp = task_fingerprint("a", {})
        entries = [
            _entry("a", status="crash", fingerprint=fp),
            _entry("a", status="ok", attempt=1, fingerprint=fp),
        ]
        assert set(completed_fingerprints(entries)) == {fp}


class TestTaskModel:
    def test_fingerprint_depends_on_kwargs_and_seed(self):
        base = CampaignTask("t", "figure-6")
        assert base.fingerprint == task_fingerprint("figure-6", {})
        assert (CampaignTask("t", "figure-6", kwargs={"nx": 8}).fingerprint
                != base.fingerprint)
        seeded = CampaignTask("t", "figure-6", kwargs={"seed": 7})
        assert seeded.fingerprint != base.fingerprint
        assert (CampaignTask("t", "figure-6", kwargs={"seed": 8}).fingerprint
                != seeded.fingerprint)

    def test_fingerprint_ignores_kwarg_order(self):
        a = task_fingerprint("x", {"nx": 8, "scale": 2, "seed": 0})
        b = task_fingerprint("x", {"seed": 0, "scale": 2, "nx": 8})
        assert a == b

    def test_select_tasks_glob_and_seeds(self):
        tasks = select_tasks(["figure-*"], kwargs={"seed": 100})
        ids = [t.experiment_id for t in tasks]
        assert ids == ["figure-3", "figure-5", "figure-6", "figure-8",
                       "figure-11"]
        # Every task carries the one seed: a sweep is N experiments on
        # the same inputs, not one experiment on N inputs.
        assert [t.kwargs["seed"] for t in tasks] == [100] * 5

    def test_select_tasks_default_selects_all(self):
        from repro.core.experiments import list_experiments

        tasks = select_tasks([])
        assert [t.experiment_id for t in tasks] == list_experiments()
        assert all(t.kwargs == {} for t in tasks)

    def test_select_tasks_rejects_unmatched_pattern(self):
        with pytest.raises(ValueError, match="matches no experiment"):
            select_tasks(["figure-99*"])

    def test_spec_is_json_round_trippable(self):
        task = CampaignTask("t", "table-4", kwargs={"nx": 8, "seed": 3})
        spec = json.loads(json.dumps(task.to_spec()))
        assert spec["experiment_id"] == "table-4"
        assert spec["fingerprint"] == task.fingerprint


def _old_format_ok_line(experiment_id, kwargs, seed):
    """An ``ok`` line as journals wrote it while the fingerprint also
    covered a separate task seed (a top-level ``seed`` key)."""
    blob = json.dumps(
        {"experiment_id": experiment_id, "kwargs": kwargs, "seed": seed},
        sort_keys=True, default=str,
    )
    entry = make_entry(
        task_id=experiment_id, experiment_id=experiment_id,
        fingerprint=hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16],
        status="ok", attempt=0, final=True, kwargs=kwargs,
        result={"value": 42},
    )
    entry["seed"] = seed
    return entry


class TestOldFormatJournal:
    def test_old_ok_line_is_stale(self):
        for seed in (None, 7):
            assert entry_is_stale(_old_format_ok_line("quick", {}, seed))
        assert not entry_is_stale(_entry("quick"))

    def test_resume_reruns_old_ok_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(_old_format_ok_line("quick", {}, 7))
        task = CampaignTask("quick", "quick", registry_spec=FAST_REGISTRY_SPEC)
        report = run_campaign([task], CampaignConfig(
            journal_path=str(path), backend="inproc", resume=True,
        ))
        assert report.resumed_ok == 0
        assert report.counts["ok"] == 1 and report.counts["skipped"] == 0
        entries, torn = read_journal(path)
        assert torn == 0
        assert entries[-1]["fingerprint"] == task.fingerprint
        assert "seed" not in entries[-1]
