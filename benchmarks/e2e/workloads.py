"""The four workloads: inputs from the seed, one pass, and output checks.

A pass is one simulation run in a fresh process, because that is what
a user of ``repro run`` or ``repro serve`` pays for: imports, and a
thermal operator cache that starts cold.  Batch passes run
``child.py``; a service pass boots ``repro serve`` (through
``child.py serve``) and drives it from this process with one client and
one connection at a time.

Sizes are set so one pass takes about five seconds on a 2-core host,
which lets a run report the median of several passes, while each
workload keeps the property it was chosen for (see README.md).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import random
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from tracing import PASS_SPAN, Tracer, read_spans

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

#: (kernels, length factor) replayed by ``rms-replay``.  ``sus`` runs at
#: the study's 0.25 length, where its working set outgrows the 4 MB
#: cache and the 12 MB one recovers it (CPMA ~11 -> ~7.3); shorter, it
#: is cold-miss bound.  ``conj``, ``ssym`` and ``savdf`` are left out:
#: the hand-set ``uarch.cpma-band`` oracle misflags them.
RMS_RUNS = ((["svd", "gauss", "pcg", "smvm", "savif"], 0.033),
            (["sus"], 0.25))
RMS_SCALE = 8

SWEEP_NX = 20
SWEEP_POINTS = 5
#: Grid of the one sweep point also solved fine, where factorization
#: fill and memory dominate.
SWEEP_FINE_NX = 40
#: Highest peak temperature the sweep may report, C.
PEAK_LIMIT_C = 150.0

DTM_NX = 20
DTM_EPOCHS = 128

SERVICE_FRESH = 12
SERVICE_RESUBMITS = 3
SERVICE_POLL_S = 0.005
SERVICE_JOB_TIMEOUT_S = 30.0
SERVICE_STOP_GRACE_S = 10.0
SERVE_ARGS = ["serve", "--port", "0", "--backend", "inproc",
              "--rate", "1000", "--burst", "1000"]

#: Longest one pass may take before it is killed and counted failed.
PASS_TIMEOUT_S = 100.0


def reference_s() -> float:
    """Host time of fixed pure-Python work that shares no code with the
    program: how fast this host runs right now.

    On a shared host each vCPU slows down on its own, at times several
    fold for seconds, and a pass's host time moves with it.  ``wall_ref``
    divides it out with this yardstick timed in the pass's own process.
    """
    rng = random.Random(0)
    start = time.perf_counter()
    values = sorted(rng.random() for _ in range(200_000))
    index = {f"{v:.12f}": i for i, v in enumerate(values)}
    sum(index[f"{v:.12f}"] for v in values[::7])
    return time.perf_counter() - start


def digest(outputs: Any) -> str:
    """sha256 of the canonical JSON of a pass's simulated outputs."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def conductivities(seed: int) -> List[float]:
    """Sweep points, log-uniform in [3, 60] W/m-K, descending."""
    rng = random.Random(seed)
    return sorted(
        (math.exp(rng.uniform(math.log(3.0), math.log(60.0)))
         for _ in range(SWEEP_POINTS)),
        reverse=True,
    )


# -- batch workloads: run inside child.py ------------------------------------

def run_rms(seed: int) -> Dict[str, Any]:
    from repro.core.memory_on_logic import run_performance_study

    results = [
        run_performance_study(kernels, scale=RMS_SCALE,
                              length_factor=length, seed=seed)
        for kernels, length in RMS_RUNS
    ]
    return {
        "cpma": {k: v for r in results for k, v in r.cpma.items()},
        "bandwidth": {k: v for r in results for k, v in r.bandwidth.items()},
        "replay": {k: {c: asdict(s) for c, s in row.items()}
                   for r in results for k, row in r.replay.items()},
    }


def check_rms(out: Dict[str, Any]) -> List[str]:
    return [
        f"{kernel}/{config}: CPMA {value!r} is not finite and > 0"
        for kernel, row in out["cpma"].items()
        for config, value in row.items()
        if not (math.isfinite(value) and value > 0)
    ]


def run_sweep(seed: int) -> Dict[str, Any]:
    from repro.core.experiments import get_experiment

    figure3 = get_experiment("figure-3")
    ks = conductivities(seed)
    return {
        "sweep": figure3.run(nx=SWEEP_NX, conductivities=ks),
        "fine": figure3.run(nx=SWEEP_FINE_NX,
                            conductivities=[ks[len(ks) // 2]]),
    }


def check_sweep(out: Dict[str, Any]) -> List[str]:
    from repro.thermal.materials import AMBIENT_C

    problems = []
    for grid, curves in out.items():
        for curve, points in curves.items():
            ks = sorted(points)
            peaks = [points[k] for k in ks]
            problems += [
                f"{grid} {curve}: peak {t!r} C at k={k:g} outside "
                f"({AMBIENT_C}, {PEAK_LIMIT_C}]"
                for k, t in zip(ks, peaks)
                if not (math.isfinite(t) and AMBIENT_C < t <= PEAK_LIMIT_C)
            ]
            problems += [
                f"{grid} {curve}: peak rises from {a:.3f} to {b:.3f} C "
                f"as k grows"
                for a, b in zip(peaks, peaks[1:])
                if b > a
            ]
    return problems


def run_dtm(seed: int) -> Dict[str, Any]:
    from repro.core.experiments import get_experiment

    return get_experiment("dtm_load_spike").run(
        nx=DTM_NX, n_epochs=DTM_EPOCHS, seed=seed
    )


def check_dtm(out: Dict[str, Any]) -> List[str]:
    control = out["control_exceeded_epochs"]
    return [
        f"policy {name} exceeds the ceiling {n} epochs, the no-DTM "
        f"control only {control}"
        for name, n in out["dtm_exceeded_epochs"].items()
        if n > control
    ]


#: name -> (modules imported during set-up, run, check).
BATCH: Dict[str, Tuple[Tuple[str, ...], Callable[[int], Dict[str, Any]],
                       Callable[[Dict[str, Any]], List[str]]]] = {
    "rms-replay": (("repro.core.memory_on_logic",), run_rms, check_rms),
    "thermal-sweep": (
        ("repro.core.experiments", "repro.floorplan.pentium4",
         "repro.thermal.solver", "repro.thermal.stack"),
        run_sweep, check_sweep,
    ),
    "dtm-loop": (("repro.core.experiments", "repro.coupled"), run_dtm,
                 check_dtm),
}

WORKLOADS = ("rms-replay", "thermal-sweep", "dtm-loop", "service")


# -- parent side ---------------------------------------------------------------

def batch_pass(workload: str, seed: int, env: Dict[str, str],
               spans_path: Optional[str]) -> Dict[str, Any]:
    """One batch pass in a fresh child; returns its measurements."""
    cmd = [sys.executable, str(CHILD), "pass", workload, str(seed)]
    if spans_path:
        cmd += ["--spans", spans_path]
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return _failed_pass(f"pass exceeded {PASS_TIMEOUT_S:g}s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _failed_pass(f"child exited {proc.returncode}")
    out = json.loads(lines[-1])
    return {
        "attempted": 1,
        "failed": int(bool(out["problems"])),
        "problems": out["problems"],
        "digest": out["digest"],
        "metrics": {
            "setup_s": (out["ready_ns"] - spawn_ns) / 1e9,
            "wall_s": out["wall_s"],
            "ref_s": out["ref_s"],
            "peak_rss_mb": out["peak_rss_mb"],
        },
        "spans": read_spans(spans_path) if spans_path else [],
    }


def _failed_pass(problem: str, attempted: int = 1) -> Dict[str, Any]:
    return {"attempted": attempted, "failed": attempted,
            "problems": [problem], "digest": None, "metrics": {},
            "spans": []}


def service_schedule(seed: int) -> List[Tuple[int, bool]]:
    """(job seed, fresh?) in submission order: each fresh fingerprint is
    followed by resubmissions of fingerprints already served."""
    rng = random.Random(seed)
    fresh = rng.sample(range(1, 10**9), SERVICE_FRESH)
    order: List[Tuple[int, bool]] = []
    for i, job_seed in enumerate(fresh):
        order.append((job_seed, True))
        order += [(rng.choice(fresh[: i + 1]), False)
                  for _ in range(SERVICE_RESUBMITS)]
    return order


def _http(port: int, method: str, path: str,
          body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=20)
    try:
        data = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=data,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _submit_and_wait(port: int, job_seed: int,
                     problems: List[str]) -> Optional[bytes]:
    """Submit one table-4 job and poll it until served; the served body,
    or None after appending why it failed to *problems*."""
    status, body = _http(port, "POST", "/jobs",
                         {"experiment": "table-4", "seed": job_seed})
    deadline = time.monotonic() + SERVICE_JOB_TIMEOUT_S
    while True:
        if status != 200:
            problems.append(f"seed {job_seed}: HTTP {status}")
            return None
        view = json.loads(body)
        if view.get("status") == "done":
            return body
        if view.get("status") == "failed":
            problems.append(f"seed {job_seed}: job failed: "
                            f"{view.get('error')}")
            return None
        if time.monotonic() > deadline:
            problems.append(f"seed {job_seed}: not done after "
                            f"{SERVICE_JOB_TIMEOUT_S:g}s")
            return None
        time.sleep(SERVICE_POLL_S)
        status, body = _http(port, "GET", f"/jobs/{view['job_id']}")


def check_served(served: Dict[int, bytes], job_seed: int,
                 body: bytes) -> List[str]:
    """Every read of one fingerprint must serve byte-identical payloads,
    each with a clean oracle scoreboard."""
    problems = []
    if served.setdefault(job_seed, body) != body:
        problems.append(f"seed {job_seed}: served payload differs between "
                        f"reads")
    violations = (json.loads(body).get("oracles") or {}).get("violations")
    if violations:
        problems.append(f"seed {job_seed}: served with {len(violations)} "
                        f"oracle violation(s): {violations[0]}")
    return problems


def peak_rss_mb(pid: Union[int, str] = "self") -> float:
    """Peak resident set of one process since its exec (VmHWM), MB.

    Not ``ru_maxrss``: Linux carries the parent's high-water mark into a
    child at exec, so a child would report the benchmark's own size.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"process {pid} has no VmHWM (exited?)")


def _stop(proc: subprocess.Popen) -> Tuple[float, float]:
    """SIGINT, then SIGKILL after the grace period.

    Returns the seconds from SIGINT until ``repro serve`` returned and
    the yardstick ``child.py serve`` then timed in the server's process.
    A server that had to be killed gives the seconds until it died and a
    yardstick timed here instead.
    """
    sigint_ns = time.monotonic_ns()
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=SERVICE_STOP_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    lines = proc.stdout.read().strip().splitlines()
    try:
        report = json.loads(lines[-1])
        return (report["stopped_ns"] - sigint_ns) / 1e9, report["ref_s"]
    except (IndexError, KeyError, TypeError, ValueError):
        return (time.monotonic_ns() - sigint_ns) / 1e9, reference_s()


def _await_announce(proc: subprocess.Popen, timeout_s: float) -> int:
    """Port from ``repro serve``'s announce line."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.1)
        if ready:
            line = proc.stdout.readline()
            if not line:
                break
            match = re.search(r"http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
    raise RuntimeError("repro serve did not announce its port")


def service_pass(seed: int, env: Dict[str, str], data_dir: Path,
                 spans_path: Optional[str]) -> Dict[str, Any]:
    """One closed-loop pass against a freshly booted ``repro serve``."""
    cmd = [sys.executable, str(CHILD), "serve", "--spans", spans_path or "",
           "--", *SERVE_ARGS, "--data-dir", str(data_dir)]
    schedule = service_schedule(seed)
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    problems: List[str] = []
    served: Dict[int, bytes] = {}
    latencies: Dict[str, List[float]] = {"served_ms": [], "hit_ms": []}
    ok = 0
    tracer = Tracer(f"service-{seed}")
    deadline = time.monotonic() + PASS_TIMEOUT_S
    try:
        port = _await_announce(proc, PASS_TIMEOUT_S)
        setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
        root = tracer.start(PASS_SPAN)
        start = time.perf_counter()
        for job_seed, fresh in schedule:
            if time.monotonic() > deadline:
                problems.append(f"pass exceeded {PASS_TIMEOUT_S:g}s")
                break
            t0 = time.perf_counter()
            body = _submit_and_wait(port, job_seed, problems)
            if body is None:
                continue
            latencies["served_ms" if fresh else "hit_ms"].append(
                1e3 * (time.perf_counter() - t0))
            wrong = check_served(served, job_seed, body)
            ok += not wrong
            problems += wrong
        wall_s = time.perf_counter() - start
        tracer.end(root)
        peak_mb = peak_rss_mb(proc.pid)
    except (OSError, http.client.HTTPException, RuntimeError,
            ValueError) as exc:
        return _failed_pass(f"service pass: {exc}", len(schedule))
    finally:
        shutdown_s, ref_s = _stop(proc)
        proc.stdout.close()
    payloads = {s: json.loads(b) for s, b in served.items()}
    outputs = {str(s): payloads[s]["result"]
               for s, fresh in schedule if fresh and s in payloads}
    root["attrs"]["oracles"] = {
        "checks": sum(p["oracles"].get("total_checks", 0)
                      for p in payloads.values()),
        "violations": sum(len(p["oracles"].get("violations", []))
                          for p in payloads.values()),
    }
    spans = tracer.spans + read_spans(spans_path) if spans_path else []
    return {
        "attempted": len(schedule),
        "failed": len(schedule) - ok,
        "problems": problems,
        "digest": digest(outputs),
        "metrics": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "ref_s": ref_s,
            "peak_rss_mb": peak_mb,
            "shutdown_s": shutdown_s,
            "jobs_per_s": ok / wall_s,
        },
        "latencies": latencies,
        "spans": spans,
    }
