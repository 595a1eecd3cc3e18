"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Workloads run at tiny sizes: a shim child sets the size constants before
handing over to ``child.py``, and the service client's sizes are set in
this process.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

TINY = {
    "RMS_RUNS": [(["svd"], 0.001), (["sus"], 0.001)],
    "SWEEP_NX": 8,
    "SWEEP_POINTS": 3,
    "SWEEP_FINE_NX": 10,
    "DTM_NX": 8,
    "DTM_EPOCHS": 4,
}


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Run every workload at tiny sizes; returns a shim writer so a test
    can override more constants in the child."""

    def shim(**overrides):
        script = tmp_path / "tiny_child.py"
        script.write_text(
            "import sys\n"
            f"sys.path.insert(0, {str(HERE)!r})\n"
            "import child, workloads\n"
            f"for k, v in {dict(TINY, **overrides)!r}.items():\n"
            "    setattr(workloads, k, v)\n"
            "sys.exit(child.main(sys.argv[1:]))\n"
        )
        monkeypatch.setattr(workloads, "CHILD", script)

    monkeypatch.setattr(workloads, "SERVICE_FRESH", 2)
    monkeypatch.setattr(workloads, "SERVICE_RESUBMITS", 1)
    shim()
    return shim


def _run(capsys, *args):
    code = run.main(["--seconds", "0", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(
        tiny, capsys, tmp_path, workload):
    for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
        spans = tmp_path / f"spans-{trace}.jsonl"
        code, result, _ = _run(capsys, "--workload", workload,
                               "--trace", str(trace),
                               "--trace-out", str(spans))
        assert code == 0 and result["correct"], result
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC[declared]}
        assert all(math.isfinite(v["value"])
                   for v in result["metrics"].values())
    _assert_self_times_cover_the_pass(tracing.read_spans(str(spans)))


def _assert_self_times_cover_the_pass(spans):
    root = next(s for s in spans if s["name"] == tracing.PASS_SPAN)
    wall = root["end_ns"] - root["start_ns"]
    owned = tracing.self_times(spans, root["start_ns"], root["end_ns"])
    assert sum(owned.values()) == pytest.approx(wall, rel=0.02)
    shares = tracing.layer_metrics(spans)
    assert sum(shares[f"{n}.self_pct"] for n in tracing.LAYERS) == \
        pytest.approx(100.0, rel=0.02)


def test_self_time_splits_nested_and_concurrent_spans():
    def span(sid, start, end):
        return {"span_id": sid, "start_ns": start, "end_ns": end}

    spans = [
        span("root", 0, 100),
        span("a", 10, 50),     # child of root
        span("a1", 20, 30),    # child of a
        span("b", 40, 70),     # concurrent with a, on another thread
        span("late", 90, 130),  # runs past the window
    ]
    owned = tracing.self_times(spans, 0, 100)
    assert owned == {"root": 10 + 20, "a": 10 + 10, "a1": 10,
                     "b": 30, "late": 10}
    assert sum(owned.values()) == 100


def test_failed_output_check_fails_the_run(tiny, capsys):
    tiny(PEAK_LIMIT_C=0.0)
    code, result, lines = _run(capsys, "--workload", "thermal-sweep")
    assert code == 1 and not result["correct"] and result["failed"] >= 1
    assert any("CHECK FAILED" in line for line in lines)


def test_sweep_check_flags_non_monotone_and_out_of_range_peaks():
    good = {"sweep": {"cu_metal": {60.0: 84.0, 3.0: 88.0}},
            "fine": {"bond": {60.0: 83.0}}}
    assert workloads.check_sweep(good) == []
    rising = {"sweep": {"cu_metal": {60.0: 89.0, 3.0: 88.0}}}
    assert "rises" in workloads.check_sweep(rising)[0]
    for bad in (float("nan"), 20.0, 151.0):
        assert workloads.check_sweep({"fine": {"bond": {3.0: bad}}})


def test_rms_check_flags_non_positive_or_nan_cpma():
    assert workloads.check_rms({"cpma": {"svd": {"2D 4MB": 1.4}}}) == []
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        assert workloads.check_rms({"cpma": {"svd": {"2D 4MB": bad}}})


def test_dtm_check_flags_a_policy_hotter_than_the_control():
    out = {"control_exceeded_epochs": 3,
           "dtm_exceeded_epochs": {"pid": 0, "threshold": 3}}
    assert workloads.check_dtm(out) == []
    out["dtm_exceeded_epochs"]["pid"] = 4
    assert "pid" in workloads.check_dtm(out)[0]


def test_service_checks_flag_mismatched_payloads_and_bad_statuses(
        monkeypatch):
    served = {}
    assert workloads.check_served(served, 7, b'{"a": 1}') == []
    assert workloads.check_served(served, 7, b'{"a": 1}') == []
    assert workloads.check_served(served, 7, b'{"a": 2}')
    dirty = b'{"oracles": {"violations": ["thermal.energy: off"]}}'
    assert "oracle violation" in workloads.check_served({}, 8, dirty)[0]

    for status, body, expect in (
            (429, b"{}", "HTTP 429"),
            (200, b'{"status": "failed", "error": "boom"}', "job failed")):
        monkeypatch.setattr(workloads, "_http",
                            lambda *a, s=status, b=body: (s, b))
        problems = []
        assert workloads._submit_and_wait(0, 7, problems) is None
        assert expect in problems[0]


def test_served_oracle_violation_fails_the_run(tiny, capsys, monkeypatch):
    real = workloads._submit_and_wait

    def corrupted(*args):
        payload = json.loads(real(*args))
        payload["oracles"]["violations"] = ["thermal.energy: off by 5%"]
        return json.dumps(payload).encode()

    monkeypatch.setattr(workloads, "_submit_and_wait", corrupted)
    code, result, lines = _run(capsys, "--workload", "service")
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("oracle violation" in line for line in lines)


def _metric(value, q1, q3, passes=None, unit="s"):
    return {"value": value, "q1": q1, "q3": q3, "unit": unit,
            "passes": passes or [value]}


def test_compare_verdicts():
    import compare

    base = _metric(10.0, 9.9, 10.1)
    assert compare.verdict(base, _metric(10.5, 10.4, 10.6), "lower", 0.1) \
        == "ok"
    assert compare.verdict(base, _metric(12.0, 11.9, 12.1), "lower", 0.1) \
        == "regressed"
    assert compare.verdict(base, _metric(10.0, 8.0, 12.0), "lower", 0.1) \
        == "unresolved"
    wide = _metric(10.0, 8.0, 12.0, passes=[8.0, 10.0, 12.0])
    assert compare.verdict(wide, _metric(5.0, 4.9, 5.1, passes=[4.9, 5.1]),
                           "lower", 0.1) == "ok"
    zero = _metric(0.0, 0.0, 0.0)
    assert compare.verdict(zero, _metric(0.0, 0.0, 0.0), "lower", 0.0) \
        == "ok"
    assert compare.verdict(zero, _metric(0.1, 0.1, 0.1), "lower", 0.0) \
        == "regressed"


def test_compare_judges_host_times_in_yardstick_units(capsys):
    import compare

    def run(setup_s, rss_mb, ref_s):
        metrics = {"setup_s": _metric(setup_s, setup_s, setup_s),
                   "peak_rss_mb": _metric(rss_mb, rss_mb, rss_mb, unit="MB"),
                   "ref_s": _metric(ref_s, ref_s, ref_s)}
        return {"seed": 1, "workloads": {"w": {"digest": "d",
                                               "metrics": metrics}}}

    table = compare.gates()
    assert set(m["name"] for m in SPEC["end_to_end"]) <= set(table)
    # The whole host slowed by 40%: no change in yardstick units.
    assert compare.compare(run(0.5, 80, 0.2), run(0.7, 80, 0.28), table) \
        == 0
    # Same host speed, 40% slower set-up; then 40% more memory.
    assert compare.compare(run(0.5, 80, 0.2), run(0.7, 80, 0.2), table) \
        == 1
    assert compare.compare(run(0.5, 80, 0.2), run(0.5, 112, 0.28), table) \
        == 1
    assert "regressed" in capsys.readouterr().out
