"""Child process of the benchmark.

``child.py pass <workload> <seed> [--spans FILE]`` imports what the
workload needs, notes when it is ready, runs one pass between two
samples of the host-speed yardstick, checks the outputs and prints one
JSON line.  With ``--spans`` the layer boundaries are wrapped and the
spans written to FILE.

``child.py serve [--spans FILE] -- <repro serve args>`` runs
``repro serve``; when it stops, prints one JSON line: when it stopped
and the yardstick timed in the server's process.  With ``--spans`` the
layer boundaries are wrapped and the spans written to FILE.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

import tracing
import workloads


def run_pass(workload: str, seed: int, spans_path: str) -> int:
    modules, run, check = workloads.BATCH[workload]
    for name in modules:
        importlib.import_module(name)
    from repro.oracles.report import oracle_report
    from repro.thermal.solver import operator_cache_stats

    ready_ns = time.monotonic_ns()
    tracer = tracing.Tracer(f"{workload}-{seed}")
    if spans_path:
        tracing.install(tracer)
    # The yardstick brackets the pass in this process: the host's two
    # vCPUs slow down independently, so one timed elsewhere misleads.
    ref_before = workloads.reference_s()
    root = tracer.start(tracing.PASS_SPAN)
    start = time.perf_counter()
    outputs = run(seed)
    wall_s = time.perf_counter() - start
    tracer.end(root)
    ref_s = (ref_before + workloads.reference_s()) / 2

    report = oracle_report()
    root["attrs"]["oracles"] = {
        "checks": report.total_checks,
        "differential": sum(n for name, n in report.checks.items()
                            if name.endswith("-differential")),
        "violations": len(report.violations),
    }
    root["attrs"]["op_cache"] = operator_cache_stats()
    problems = check(outputs) + [
        f"oracle {v.oracle}: {v.detail}" for v in report.violations
    ]
    if spans_path:
        tracer.write(spans_path)
    print(json.dumps({
        "ready_ns": ready_ns,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "peak_rss_mb": workloads.peak_rss_mb(),
        "problems": problems,
        "digest": workloads.digest(outputs),
    }))
    return 0


def run_serve(spans_path: str, serve_args: list) -> int:
    from repro.cli import main

    tracer = tracing.Tracer("service")
    if spans_path:
        tracing.install(tracer)
    try:
        return main(serve_args)
    finally:
        stopped_ns = time.monotonic_ns()
        if spans_path:
            tracer.write(spans_path)
        print(json.dumps({"stopped_ns": stopped_ns,
                          "ref_s": workloads.reference_s()}), flush=True)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    one = sub.add_parser("pass")
    one.add_argument("workload", choices=sorted(workloads.BATCH))
    one.add_argument("seed", type=int)
    one.add_argument("--spans", default="")
    serve = sub.add_parser("serve")
    serve.add_argument("--spans", default="")
    serve.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "pass":
        return run_pass(args.workload, args.seed, args.spans)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    return run_serve(args.spans, serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
