"""Unit tests for the ``repro bench`` harness: timing primitives,
report round-trip, and the baseline regression gate's arithmetic."""

import pytest

import repro.bench
from repro.bench.harness import (
    BENCH_SCHEMA,
    BenchResult,
    compare_to_baseline,
    load_report,
    time_pairs,
    write_report,
)
from repro.cli import main as cli_main


def _result(name, reference_s, optimized_s, equivalent=True):
    return BenchResult(
        name=name,
        reference_s=reference_s,
        optimized_s=optimized_s,
        equivalent=equivalent,
    )


class TestTimePairs:
    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError):
            time_pairs(lambda: None, lambda: None, pairs=0)

    def test_returns_nonnegative_seconds(self):
        ref_s, opt_s = time_pairs(
            lambda: sum(range(100)), lambda: None, pairs=2
        )
        assert ref_s >= 0.0 and opt_s >= 0.0

    def test_interleaves_and_alternates_the_first_side(self):
        calls = []
        time_pairs(
            lambda: calls.append("ref"), lambda: calls.append("opt"),
            pairs=5,
        )
        assert calls == ["ref", "opt", "opt", "ref"] * 2 + ["ref", "opt"]

    def test_median_ignores_one_slow_pair(self, monkeypatch):
        # Every run takes 1 s on the fake clock except the third
        # reference run, which takes 1000 s: the medians do not move.
        import repro.bench.harness as harness

        ticks = iter([0, 1, 1, 2, 2, 3, 3, 4, 4, 1004, 1004, 1005,
                      1005, 1006, 1006, 1007, 1007, 1008, 1008, 1009])
        monkeypatch.setattr(harness.time, "perf_counter", lambda: next(ticks))
        assert time_pairs(lambda: None, lambda: None, pairs=5) == (1, 1)


class TestBenchResult:
    def test_speedup(self):
        assert _result("x", 3.0, 1.0).speedup == 3.0

    def test_speedup_with_zero_optimized_time(self):
        assert _result("x", 1.0, 0.0).speedup == float("inf")

    def test_to_dict_carries_speedup(self):
        entry = _result("x", 2.0, 0.5).to_dict()
        assert entry["speedup"] == 4.0
        assert entry["name"] == "x"


class TestReportRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "bench.json"
        write_report(
            [_result("a", 1.0, 0.25)], path, extra={"tier": "quick"}
        )
        report = load_report(path)
        assert report["schema"] == BENCH_SCHEMA
        assert report["tier"] == "quick"
        assert report["results"][0]["speedup"] == 4.0

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "something-else/9", "results": []}')
        with pytest.raises(ValueError, match="schema"):
            load_report(path)


class TestRegressionGate:
    def _report(self, *results):
        return {"schema": BENCH_SCHEMA,
                "results": [r.to_dict() for r in results]}

    def test_no_regression_when_equal(self):
        report = self._report(_result("a", 3.0, 1.0))
        assert compare_to_baseline(report, report) == []

    def test_within_threshold_passes(self):
        # Baseline 4.0x, current 3.1x: above the 4.0 * 0.75 = 3.0 floor.
        current = self._report(_result("a", 3.1, 1.0))
        baseline = self._report(_result("a", 4.0, 1.0))
        assert compare_to_baseline(current, baseline, threshold=0.25) == []

    def test_below_threshold_regresses(self):
        # Baseline 4.0x, current 2.9x: below the 3.0 floor.
        current = self._report(_result("a", 2.9, 1.0))
        baseline = self._report(_result("a", 4.0, 1.0))
        problems = compare_to_baseline(current, baseline, threshold=0.25)
        assert len(problems) == 1
        assert "a" in problems[0]

    def test_faster_than_baseline_passes(self):
        current = self._report(_result("a", 8.0, 1.0))
        baseline = self._report(_result("a", 4.0, 1.0))
        assert compare_to_baseline(current, baseline) == []

    def test_new_benchmark_is_ignored(self):
        current = self._report(_result("brand-new", 1.0, 1.0))
        baseline = self._report(_result("a", 4.0, 1.0))
        assert compare_to_baseline(current, baseline) == []

    def test_removed_benchmark_is_ignored(self):
        current = self._report(_result("a", 4.0, 1.0))
        baseline = self._report(
            _result("a", 4.0, 1.0), _result("gone", 9.0, 1.0)
        )
        assert compare_to_baseline(current, baseline) == []

    def test_non_equivalent_always_regresses(self):
        # Even a massive speedup fails if the answers differ.
        current = self._report(_result("a", 100.0, 1.0, equivalent=False))
        baseline = self._report(_result("a", 4.0, 1.0))
        problems = compare_to_baseline(current, baseline)
        assert len(problems) == 1
        assert "equivalent" in problems[0]

    def test_threshold_validation(self):
        report = self._report(_result("a", 1.0, 1.0))
        with pytest.raises(ValueError):
            compare_to_baseline(report, report, threshold=0.0)
        with pytest.raises(ValueError):
            compare_to_baseline(report, report, threshold=1.0)


class TestBenchCommand:
    def test_out_equal_to_baseline_is_refused_before_running(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_suite(**_kwargs):
            raise AssertionError("run_suite must not run")

        monkeypatch.setattr(repro.bench, "run_suite", no_suite)
        baseline = tmp_path / "BENCH_repro.json"
        write_report([_result("a", 2.0, 1.0)], str(baseline))
        before = baseline.read_bytes()
        # The same file, spelled two ways.
        code = cli_main([
            "bench", "--quick", "--out", str(baseline),
            "--baseline", str(tmp_path / "." / baseline.name),
        ])
        assert code == 2
        assert "is the --baseline file" in capsys.readouterr().err
        assert baseline.read_bytes() == before
