"""Spans recorded from outside the program, and the per-layer split.

The benchmark times each layer by wrapping that layer's public functions
in the process that runs them.  A wrapper replaces every module binding
of the function, not just the defining one, because ``from x import f``
copies the reference into the caller's namespace.

Spans are JSON objects ``{trace_id, span_id, parent_id, name, start_ns,
end_ns, attrs}`` on the system-wide monotonic clock, so spans from the
service process and the benchmark's client line up on one timeline.
Service spans carry the job fingerprint as ``trace_id``.
"""

from __future__ import annotations

import heapq
import importlib
import json
import os
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Root span of one measured pass; its self time is everything no
#: wrapped layer covers (experiment glue, client overhead, poll sleeps).
PASS_SPAN = "bench.pass"

#: Every span name, in the order the per-layer table prints them.
LAYERS = (
    "traces.gen",
    "memsim.replay",
    "thermal.assemble",
    "thermal.factor",
    "thermal.steady",
    "thermal.transient",
    "coupled.loop",
    "uarch.model",
    "service.submit",
    "service.poll",
    "service.cache_verify",
    "service.cache_store",
    "runner.campaign",
    "runner.experiment",
    "runner.journal_append",
    PASS_SPAN,
)


class Tracer:
    """Collects finished spans in memory; written out when the run ends."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str,
              trace_id: Optional[str] = None) -> Dict[str, Any]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._next += 1
            span_id = f"{os.getpid()}-{self._next}"
        span = {
            "trace_id": trace_id or (parent["trace_id"] if parent
                                     else self.trace_id),
            "span_id": span_id,
            "parent_id": parent["span_id"] if parent else None,
            "name": name,
            "start_ns": time.monotonic_ns(),
            "end_ns": None,
            "attrs": {},
        }
        stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end_ns"] = time.monotonic_ns()
        self._stack().remove(span)
        with self._lock:
            self.spans.append(span)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        trace_id: Optional[Callable[[tuple], Optional[str]]] = None,
        attrs: Optional[Callable[[tuple, Any], Dict[str, Any]]] = None,
    ) -> Callable[..., Any]:
        """*fn* inside a span; *trace_id*/*attrs* read args and result.

        An ``attrs`` result may carry ``trace_id`` for spans whose job
        is only known once the call returns (a submission).
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self.start(name, trace_id(args) if trace_id else None)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, result)
                    span["trace_id"] = extra.pop("trace_id", None) \
                        or span["trace_id"]
                    span["attrs"].update(extra)
                return result
            finally:
                self.end(span)

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def read_spans(path: str) -> List[Dict[str, Any]]:
    try:
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
    except FileNotFoundError:
        return []


class _SplaProxy:
    """``scipy.sparse.linalg`` with ``splu`` replaced (for the factor span)."""

    def __init__(self, real: Any, splu: Callable[..., Any]) -> None:
        self._real = real
        self.splu = splu

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


def _rebind(original: Any, replacement: Any) -> None:
    """Point every ``repro`` module binding of *original* at *replacement*."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _fingerprint_arg(args: tuple) -> Optional[str]:
    return args[1] if len(args) > 1 and isinstance(args[1], str) else None


#: (module, attribute, span name, trace-id reader, attrs reader).
_TARGETS = (
    ("repro.traces.generator", "TraceGenerator.arrays", "traces.gen", None,
     lambda a, r: {"records": len(r)}),
    ("repro.memsim.replay", "replay_trace", "memsim.replay", None,
     lambda a, r: {
         "records": len(a[0]),
         "offchip": round(r.n_accesses * r.offchip_fraction),
         "invalidations": r.invalidations,
     }),
    ("repro.thermal.solver", "assemble_system", "thermal.assemble", None, None),
    ("repro.thermal.solver", "solve_steady_state", "thermal.steady", None,
     None),
    ("repro.thermal.transient", "solve_transient", "thermal.transient", None,
     None),
    ("repro.coupled.engine", "run_coupled_loop", "coupled.loop", None,
     lambda a, r: {"epochs": len(r.epochs), "exceeded": r.exceeded_epochs}),
    ("repro.uarch.interval", "geomean_ipc", "uarch.model", None, None),
    ("repro.uarch.pipeline", "planar_pipeline", "uarch.model", None, None),
    ("repro.uarch.pipeline", "stacked_pipeline", "uarch.model", None, None),
    ("repro.uarch.power", "planar_power_breakdown", "uarch.model", None, None),
    ("repro.uarch.power", "stacked_power_breakdown", "uarch.model", None,
     None),
    ("repro.service.handlers", "handle_submit", "service.submit", None,
     lambda a, r: {"trace_id": r.payload.get("job_id")}),
    ("repro.service.handlers", "handle_job_get", "service.poll",
     _fingerprint_arg,
     lambda a, r: {"done": r.payload.get("status") == "done"}),
    ("repro.service.resultcache", "ResultCache.load_verified",
     "service.cache_verify", _fingerprint_arg,
     lambda a, r: {"hit": r[0] is not None}),
    ("repro.service.resultcache", "ResultCache.store", "service.cache_store",
     _fingerprint_arg, None),
    ("repro.runner.scheduler", "run_campaign", "runner.campaign",
     lambda a: a[0][0].task_id if a and a[0] else None, None),
    ("repro.core.experiments", "run_experiment", "runner.experiment", None,
     None),
    ("repro.runner.journal", "Journal.append", "runner.journal_append",
     lambda a: a[1].get("fingerprint") if len(a) > 1 else None, None),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary in this process (once per process)."""
    import scipy.sparse.linalg as spla

    for module_name, attr, name, trace_id, attrs in _TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[method]
            setattr(owner, method,
                    tracer.wrap(name, original, trace_id, attrs))
        else:
            original = getattr(module, attr)
            _rebind(original, tracer.wrap(name, original, trace_id, attrs))
    splu = tracer.wrap("thermal.factor", spla.splu,
                       attrs=lambda a, r: {"nnz": int(r.nnz)})
    for module_name in ("repro.thermal.solver", "repro.thermal.transient"):
        module = importlib.import_module(module_name)
        module.spla = _SplaProxy(spla, splu)


def self_times(spans: Iterable[Dict[str, Any]], start_ns: int,
               end_ns: int) -> Counter:
    """Nanoseconds of ``[start_ns, end_ns)`` each span owns, by span id.

    At every instant the time belongs to the most recently started span
    still open.  On one thread that is a span's duration minus what its
    children cover; across threads and processes it also keeps
    concurrent spans from counting the same instant twice, so the owned
    times always sum to the window.
    """
    events = []
    for order, span in enumerate(spans):
        a, b = max(span["start_ns"], start_ns), min(span["end_ns"], end_ns)
        if a < b:
            key = (-span["start_ns"], -order)
            events.append((a, 1, key, span["span_id"]))
            events.append((b, 0, key, span["span_id"]))
    events.sort(key=lambda e: (e[0], e[1]))
    owned: Counter = Counter()
    open_spans: List[tuple] = []
    closed = set()
    now = start_ns
    for t, is_start, key, span_id in events:
        while open_spans and open_spans[0][1] in closed:
            heapq.heappop(open_spans)
        if open_spans:
            owned[open_spans[0][1]] += t - now
        now = t
        if is_start:
            heapq.heappush(open_spans, (key, span_id))
        else:
            closed.add(span_id)
    return owned


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (its spans incl. one root)."""
    root = next(s for s in spans if s["name"] == PASS_SPAN)
    wall_ns = root["end_ns"] - root["start_ns"]
    owned = self_times(spans, root["start_ns"], root["end_ns"])
    by_name: Counter = Counter()
    busy: Counter = Counter()
    calls: Counter = Counter()
    attrs: Counter = Counter()
    for span in spans:
        name = span["name"]
        by_name[name] += owned[span["span_id"]]
        busy[name] += span["end_ns"] - span["start_ns"]
        calls[name] += 1
        for key, value in span["attrs"].items():
            if isinstance(value, (bool, int, float)):
                attrs[f"{name}.{key}"] += value
    oracles = root["attrs"].get("oracles", {})
    op_cache = root["attrs"].get("op_cache", {})
    lookups = op_cache.get("hits", 0) + op_cache.get("misses", 0)
    polls = calls["service.poll"]
    verifies = calls["service.cache_verify"]

    def per_s(count: float, name: str) -> float:
        return count / (busy[name] / 1e9) if busy[name] else 0.0

    metrics = {f"{n}.self_pct": 100.0 * by_name[n] / wall_ns for n in LAYERS}
    metrics.update({
        "bench.traced_wall_s": wall_ns / 1e9,
        "traces.records": attrs["traces.gen.records"],
        "traces.records_per_sec": per_s(attrs["traces.gen.records"],
                                        "traces.gen"),
        "memsim.replay_calls": calls["memsim.replay"],
        "memsim.refs_per_sec": per_s(attrs["memsim.replay.records"],
                                     "memsim.replay"),
        "memsim.offchip_refs": attrs["memsim.replay.offchip"],
        "memsim.invalidations": attrs["memsim.replay.invalidations"],
        "oracles.checks": oracles.get("checks", 0),
        "oracles.differential_chunks": oracles.get("differential", 0),
        "oracles.violations": oracles.get("violations", 0),
        "thermal.assemble_calls": calls["thermal.assemble"],
        "thermal.factor_calls": calls["thermal.factor"],
        "thermal.lu_fill_nnz": attrs["thermal.factor.nnz"],
        "thermal.steady_calls": calls["thermal.steady"],
        "thermal.transient_calls": calls["thermal.transient"],
        "thermal.op_cache_hit_ratio": (op_cache.get("hits", 0) / lookups
                                       if lookups else 0.0),
        "coupled.epochs_per_sec": per_s(attrs["coupled.loop.epochs"],
                                        "coupled.loop"),
        "coupled.exceeded_epochs": attrs["coupled.loop.exceeded"],
        "uarch.calls": calls["uarch.model"],
        "service.poll_calls": polls,
        "service.poll_waste_ratio": ((polls - attrs["service.poll.done"])
                                     / polls if polls else 0.0),
        "service.cache_hit_ratio": (attrs["service.cache_verify.hit"]
                                    / verifies if verifies else 0.0),
        "runner.journal_appends": calls["runner.journal_append"],
    })
    return metrics
