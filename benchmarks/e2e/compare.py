"""Compare two ``run.py --json`` outputs, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the parent commit (or the first set of runs), B the change (or
the second set).  The gated metrics are the ``end_to_end`` ones of
``BENCHMARK.json`` with their bounds, the service metrics of
``SERVICE_GATES`` below, and ``fail_ratio``, which may not rise at all.
For each it prints both medians and quartiles, B's change and a verdict:

``ok``
    B's median is no worse than A's by more than the bound.
``regressed``
    B's median is worse than A's by more than the bound.
``unresolved``
    A side's median is uncertain by more than the bound, so the two
    cannot be told apart -- unless every pass of B reads better than
    every pass of A, which is ``ok``.  The uncertainty is the spread of
    the passes (q3 - q1, as a share of the median) scaled to that of a
    median of n passes, by 1.25 / sqrt(n).

Host times (``s``, ``ms``) and rates (``1/s``) are judged in units of
the run's own yardstick ``ref_s``, as ``wall_ref`` is: the shared host's
speed drifts by tens of percent within an hour and moves absolute times
with it.  The medians print as measured, the change of a gated host
time in yardstick units.  Every other metric prints as ``info``.  The
simulated-output digests must match.  Exit code 1 when any pair
regressed or is unresolved, or a digest changed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Service metrics gated beside BENCHMARK.json's: name -> (better,
#: bound).  Each bound is three times the largest spread measured over
#: ten seeds, capped at 25% (README.md, "Measured baseline").
SERVICE_GATES = {
    "jobs_per_s": ("higher", 0.25),
    "served_p50_ms": ("lower", 0.25),
    "served_p90_ms": ("lower", 0.25),
    "hit_p50_ms": ("lower", 0.25),
}

#: Power of the host's slowness in a metric of this unit.
HOST_TIME_UNITS = {"s": 1, "ms": 1, "1/s": -1}


def gates() -> Dict[str, Tuple[str, float]]:
    """name -> (better, bound) of every gated metric."""
    spec = json.loads(SPEC.read_text())
    table = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    table.update(SERVICE_GATES)
    table["fail_ratio"] = ("lower", 0.0)
    return table


def _share(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta <= 0 else math.inf


def in_host_units(m: Dict[str, Any], ref_s: Optional[float]
                  ) -> Dict[str, Any]:
    """*m* divided by the host's slowness (``ref_s``) if it is a host time."""
    power = HOST_TIME_UNITS.get(m["unit"])
    if power is None or not ref_s:
        return m
    scale = ref_s ** -power
    return dict(m, value=m["value"] * scale, q1=m["q1"] * scale,
                q3=m["q3"] * scale, passes=[v * scale for v in m["passes"]])


def change(a: Dict[str, Any], b: Dict[str, Any]) -> float:
    return _share(b["value"] - a["value"], a["value"])


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * change(a, b)
    spread = max(_share(m["q3"] - m["q1"], m["value"]) * 1.25
                 / math.sqrt(len(m["passes"])) for m in (a, b))
    if spread > bound:
        b_wins = max(sign * v for v in b["passes"]) < \
            min(sign * v for v in a["passes"])
        return "ok" if b_wins else "unresolved"
    return "regressed" if worse > bound else "ok"


def _ref(side: Dict[str, Any]) -> Optional[float]:
    ref = side["metrics"].get("ref_s")
    return ref["value"] if ref else None


def compare(a: Dict[str, Any], b: Dict[str, Any],
            table: Dict[str, Tuple[str, float]]) -> int:
    bad = 0
    same_inputs = a.get("seed") == b.get("seed")
    if not same_inputs:
        print(f"seeds differ ({a.get('seed')} vs {b.get('seed')}): "
              "digests not compared")
    print(f"{'workload':14} {'metric':30} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B vs A':>8}  verdict")
    for workload, side_a in a["workloads"].items():
        side_b = b["workloads"].get(workload)
        if side_b is None:
            print(f"{workload:14} missing from B")
            bad += 1
            continue
        for name, ma in side_a["metrics"].items():
            mb = side_b["metrics"].get(name)
            if mb is None:
                continue
            gate = table.get(name)
            ha, hb = ma, mb
            v = "info"
            if gate:
                ha = in_host_units(ma, _ref(side_a))
                hb = in_host_units(mb, _ref(side_b))
                v = verdict(ha, hb, *gate)
            bad += v in ("regressed", "unresolved")
            print(f"{workload:14} {name:30} "
                  f"{ma['value']:12.6g} [{ma['q1']:9.4g}, {ma['q3']:9.4g}] "
                  f"{mb['value']:12.6g} [{mb['q1']:9.4g}, {mb['q3']:9.4g}]"
                  f" {100 * change(ha, hb):+7.1f}%  {v}")
        if same_inputs:
            same = side_a.get("digest") == side_b.get("digest")
            bad += not same
            print(f"{workload:14} digest {'same' if same else 'CHANGED'}")
    return 1 if bad else 0


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fa, \
            open(argv[1], encoding="utf-8") as fb:
        return compare(json.load(fa), json.load(fb), gates())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
