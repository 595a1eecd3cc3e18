"""End-to-end benchmark of the reproduction: four workloads, host time.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload rms-replay --seed 1 \\
        --seconds 25 --trace 0 [--trace-out spans.jsonl] [--json out.json]

``--workload all`` (the default) runs every workload, passes taken
round-robin so drift on a shared host hits each workload alike.  Each
workload repeats passes until it has spent ``--seconds``.  With
``--trace 0`` every pass runs the unmodified program and the end-to-end
metrics are reported; with ``--trace 1`` passes alternate untraced and
traced, and the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (each metric's median over
the passes, ``wall_ref`` a ratio of sums, with its unit).  The exit
code is 0 when every output check passed, 1 when one failed, 2 when the
checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "e2e"
BASELINE = HERE / "baseline.json"

#: Metrics printed beside the BENCHMARK.json ones: name -> unit.
#: ``compare.py`` holds which of them gate a change, and by how much.
COMMON_EXTRAS = {"wall_s": "s", "ref_s": "s"}
SERVICE_EXTRAS = {
    "jobs_per_s": "1/s",
    "served_p50_ms": "ms",
    "served_p90_ms": "ms",
    "hit_p50_ms": "ms",
    "shutdown_s": "s",
}
#: Traced service diagnostics: name -> unit.
SERVICE_LAYER_EXTRAS = {
    "service.queue_wait_ms_p50": "ms",
    "runner.overhead_ms_p50": "ms",
}


def percentile(values: List[float], q: float) -> float:
    """Inclusive-method percentile, *q* in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def summarize(per_pass: List[List[Any]],
              stat: Callable[[List[Any]], float] = statistics.median,
              ) -> Dict[str, Any]:
    """*stat* over all samples pooled, with the quartiles of *stat* taken
    pass by pass (the pass-to-pass spread) and the pooled sample count."""
    pooled = [v for values in per_pass for v in values]
    by_pass = [stat(values) for values in per_pass if values]
    q1 = q3 = by_pass[0]
    if len(by_pass) > 1:
        q1, _, q3 = statistics.quantiles(by_pass, n=4)
    return {"value": stat(pooled), "q1": q1, "q3": q3, "n": len(pooled),
            "passes": by_pass}


def ratio_of_sums(pairs: List[Tuple[float, float]]) -> float:
    """Total pass time over total yardstick time (``wall_ref``).  With a
    few passes a run, sums integrate the host's swings better than a
    median of the per-pass ratios."""
    return sum(w for w, _ in pairs) / sum(r for _, r in pairs)


def _wall_and_ref(result: Dict[str, Any]) -> Tuple[float, float]:
    return result["metrics"]["wall_s"], result["metrics"]["ref_s"]


def _env() -> Dict[str, str]:
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["TMPDIR"] = str(tmp)
    return env


def run_pass(workload: str, seed: int, traced: bool, env: Dict[str, str],
             index: int) -> Dict[str, Any]:
    spans_path = str(WORK / f"spans-{os.getpid()}-{index}.jsonl") \
        if traced else None
    try:
        if workload == "service":
            data_dir = WORK / f"service-{os.getpid()}-{index}"
            try:
                result = workloads.service_pass(seed, env, data_dir,
                                                spans_path)
            finally:
                shutil.rmtree(data_dir, ignore_errors=True)
        else:
            result = workloads.batch_pass(workload, seed, env, spans_path)
    finally:
        if spans_path:
            Path(spans_path).unlink(missing_ok=True)
    result["traced"] = traced
    return result


def _service_layer_extras(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Queue wait (submission handled -> campaign start) and runner
    overhead (campaign - experiment), joined on the job fingerprint."""
    first: Dict[tuple, Dict[str, Any]] = {}
    for span in sorted(spans, key=lambda s: s["start_ns"]):
        first.setdefault((span["name"], span["trace_id"]), span)
    waits, overheads = [], []
    for (name, job), campaign in first.items():
        if name != "runner.campaign":
            continue
        submit = first.get(("service.submit", job))
        experiment = first.get(("runner.experiment", job))
        if submit:
            waits.append((campaign["start_ns"] - submit["end_ns"]) / 1e6)
        if experiment:
            overheads.append(
                ((campaign["end_ns"] - campaign["start_ns"])
                 - (experiment["end_ns"] - experiment["start_ns"])) / 1e6)
    return {
        "service.queue_wait_ms_p50": statistics.median(waits) if waits
        else 0.0,
        "runner.overhead_ms_p50": statistics.median(overheads)
        if overheads else 0.0,
    }


def workload_report(workload: str, passes: List[Dict[str, Any]],
                    spec: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Every metric of one workload: BENCHMARK.json's, then the extras."""
    plain = [p for p in passes if not p["traced"] and p["metrics"]]
    traced = [p for p in passes if p["traced"] and p["spans"]]
    metrics: Dict[str, Dict[str, Any]] = {}

    def add(name: str, unit: str, per_pass: List[List[Any]],
            stat: Callable[[List[Any]], float] = statistics.median,
            ) -> None:
        if any(per_pass):
            metrics[name] = dict(summarize(per_pass, stat), unit=unit)

    for m in spec["end_to_end"]:
        if m["name"] == "wall_ref":
            add("wall_ref", m["unit"], [[_wall_and_ref(p)] for p in plain],
                ratio_of_sums)
        else:
            add(m["name"], m["unit"],
                [[p["metrics"][m["name"]]] for p in plain])
    extras = dict(COMMON_EXTRAS, **(SERVICE_EXTRAS if workload == "service"
                                    else {}))
    for name, unit in extras.items():
        if name in ("served_p50_ms", "hit_p50_ms"):
            key = name.replace("_p50", "")
            add(name, unit, [p["latencies"][key] for p in plain])
        elif name == "served_p90_ms":
            add(name, unit, [p["latencies"]["served_ms"] for p in plain],
                lambda v: percentile(v, 0.9))
        else:
            add(name, unit, [[p["metrics"][name]] for p in plain])
    # One seed gives one set of inputs, so every pass must produce the
    # same simulated outputs.
    digests = [p["digest"] for p in passes if p["digest"]]
    problems = {q for p in passes for q in p["problems"]}
    diverged = sum(d != digests[0] for d in digests)
    if diverged:
        problems.add(f"{diverged} passes' outputs differ from the first's")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + diverged
    add("fail_ratio", "ratio", [[failed / attempted]])

    if trace:
        layers = [tracing.layer_metrics(p["spans"]) for p in traced]
        for m in spec["per_layer"]:
            if m["name"] == "bench.trace_overhead_pct":
                continue
            add(m["name"], m["unit"],
                [[values[m["name"]]] for values in layers])
        if plain and traced:
            slow = ratio_of_sums([_wall_and_ref(p) for p in traced]) / \
                ratio_of_sums([_wall_and_ref(p) for p in plain])
            add("bench.trace_overhead_pct", "%", [[100.0 * (slow - 1.0)]])
        if workload == "service":
            joined = [_service_layer_extras(p["spans"]) for p in traced]
            for name, unit in SERVICE_LAYER_EXTRAS.items():
                add(name, unit, [[j[name]] for j in joined])
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(problems),
        "digest": digests[0] if digests else None,
        "metrics": metrics,
    }


def print_report(workload: str, seed: int, report: Dict[str, Any],
                 baseline: Dict[str, Any]) -> None:
    print(f"== {workload}  seed {seed}  attempted {report['attempted']}  "
          f"failed {report['failed']}")
    print(f"  {'metric':34} {'unit':6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>5}")
    for name, m in report["metrics"].items():
        print(f"  {name:34} {m['unit']:6} {m['value']:12.6g} "
              f"{m['q1']:12.6g} {m['q3']:12.6g} {m['n']:5d}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")
    digest = report["digest"]
    if digest:
        expected = baseline.get("digests", {}).get(workload) \
            if baseline.get("seed") == seed else None
        verdict = "" if expected is None else (
            "  ok" if expected == digest else
            f"  digest CHANGED (baseline {expected})")
        print(f"  digest {digest}{verdict}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="host time each workload spends on passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default="",
                        help="write the traced passes' spans (JSONL)")
    parser.add_argument("--json", default="",
                        help="write every metric with its samples")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or \
            not spec_path.is_file():
        print(f"run.py: no repro sources under {SRC} or no {spec_path}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() \
        else {}
    compileall.compile_dir(str(SRC), quiet=1)
    env = _env()

    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    min_passes = 2 if args.trace else 1
    passes: Dict[str, List[Dict[str, Any]]] = {w: [] for w in names}
    spent = dict.fromkeys(names, 0.0)
    index = 0
    while True:
        pending = [w for w in names if spent[w] < args.seconds
                   or len(passes[w]) < min_passes]
        if not pending:
            break
        for workload in pending:
            traced = bool(args.trace) and len(passes[workload]) % 2 == 1
            start = time.monotonic()
            passes[workload].append(
                run_pass(workload, args.seed, traced, env, index))
            spent[workload] += time.monotonic() - start
            index += 1

    reports = {w: workload_report(w, passes[w], spec, bool(args.trace))
               for w in names}
    for workload, report in reports.items():
        print_report(workload, args.seed, report, baseline)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            for w in names:
                for span in (s for p in passes[w] for s in p["spans"]):
                    handle.write(json.dumps(span, sort_keys=True) + "\n")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "workloads": reports}, indent=1))

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for workload, report in reports.items():
        prefix = "" if len(names) == 1 else f"{workload}:"
        for m in declared:
            got = report["metrics"].get(m["name"])
            if got is not None:
                metrics[prefix + m["name"]] = {"value": got["value"],
                                               "unit": m["unit"]}
    failed = sum(r["failed"] for r in reports.values())
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
