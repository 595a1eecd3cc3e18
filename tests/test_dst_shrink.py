"""The harness catches real bugs and shrinks them to tiny repros.

A simulation harness that never fails checks nothing, so these tests
re-introduce known bugs into the *real* scheduler and service
(:mod:`repro.dst.mutations`) and assert that seed exploration finds a
violating history, that the shrinker reduces its schedule to a handful
of events, and that the emitted artifact replays to the same verdict —
failing under the bug, passing once the bug is reverted.
"""

import pytest

from repro.dst import generate_schedule, replay, run_history
from repro.dst.harness import explore
from repro.dst.mutations import MUTATIONS, apply_mutation
from repro.dst.shrink import shrink_schedule

#: How many seeds exploration may scan before we call the mutation
#: missed.  Both known mutations fall over well inside this window
#: (seed 5 at the time of writing), but the assertion is on the window,
#: not the exact seed, so profile tweaks don't invalidate the test.
SEED_WINDOW = 24

#: The issue's acceptance bar: a deliberate lease-safety bug must
#: shrink to a repro of at most this many schedule events.
MAX_MINIMAL_EVENTS = 10

#: Words naming the property each mutation breaks: a zombie write or
#: a double-counted completion for the lease bugs, a job that never
#: settles for the dropped queue token.
EXPECTED_VIOLATION = {
    "drop-fencing": ("zombie", "double"),
    "fence-off-by-one": ("zombie", "double"),
    "drop-queue-token": ("liveness",),
}


def _first_failing_seed():
    for seed in range(SEED_WINDOW):
        history = run_history(seed)
        if not history.ok:
            return seed, history
    return None, None


class TestMutationsAreCaughtAndShrunk:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_caught_shrunk_and_replayable(self, mutation, tmp_path):
        with apply_mutation(mutation):
            seed, history = _first_failing_seed()
            assert seed is not None, (
                f"mutation {mutation!r} survived {SEED_WINDOW} seeds — "
                f"the harness is not checking what it claims to check"
            )
            minimal, final = shrink_schedule(
                seed, generate_schedule(seed, "quick")
            )
            assert len(minimal) <= MAX_MINIMAL_EVENTS
            assert len(minimal) <= len(generate_schedule(seed, "quick"))
            assert not final.ok
            # The violation names the property the mutation broke.
            blob = " ".join(final.violations)
            assert any(
                word in blob for word in EXPECTED_VIOLATION[mutation]
            ), final.violations
            # The minimal schedule replays deterministically under the
            # bug...
            again = run_history(seed, schedule=minimal)
            assert not again.ok
            assert again.violations == final.violations
        # ...and is clean once the mutation is reverted: the repro
        # isolates the bug, not some harness artifact.
        fixed = run_history(seed, schedule=minimal)
        assert fixed.ok, fixed.violations

    def test_explore_emits_replayable_artifact(self, tmp_path):
        artifact = tmp_path / "minimal.json"
        with apply_mutation("drop-fencing"):
            outcome = explore(SEED_WINDOW, artifact_path=artifact)
            assert outcome["ok"] is False
            assert outcome["failing_seed"] is not None
            assert outcome["minimal_events"] <= MAX_MINIMAL_EVENTS
            assert outcome["artifact"] == str(artifact)
            replayed = replay(artifact)
            assert not replayed.ok
            assert replayed.violations == outcome["violations"]
        assert replay(artifact).ok


class TestShrinkContract:
    def test_refuses_a_passing_schedule(self):
        with pytest.raises(ValueError, match="does not violate"):
            shrink_schedule(0, generate_schedule(0, "quick"))

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            with apply_mutation("no-such-bug"):
                pass
