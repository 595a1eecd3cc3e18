"""The simulated campaign's workload: tiny, pure, value-checkable.

DST stresses the *coordination* layer, not the science: each workload
experiment is a trivial pure function whose result is recomputable from
its inputs alone, so the harness can assert — independently of the
journal — that whatever result a history reports for a task is the
*correct* result for that task's inputs, no matter which executor
incarnation produced it.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List

from repro.core.experiments import Experiment, ExperimentRegistry
from repro.runner.tasks import CampaignTask

#: ``registry_spec`` value pointing back at :data:`DST_REGISTRY`.
DST_REGISTRY_SPEC = "repro.dst.workload:DST_REGISTRY"


def _digest(experiment_id: str, **kwargs: Any) -> str:
    blob = experiment_id + "|" + "|".join(
        f"{k}={kwargs[k]!r}" for k in sorted(kwargs)
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def _run_unit_a(value: int = 0) -> Dict[str, Any]:
    return {"value": value * 2 + 1, "tag": _digest("dst-unit-a", value=value)}


def _run_unit_b(value: int = 0) -> Dict[str, Any]:
    return {"value": value * value, "tag": _digest("dst-unit-b", value=value)}


def _run_unit_c(value: int = 0) -> Dict[str, Any]:
    return {"value": 41 - value, "tag": _digest("dst-unit-c", value=value)}


_RUNNERS = {
    "dst-unit-a": _run_unit_a,
    "dst-unit-b": _run_unit_b,
    "dst-unit-c": _run_unit_c,
}

DST_REGISTRY = ExperimentRegistry()
for _eid, _fn in _RUNNERS.items():
    DST_REGISTRY.register(Experiment(
        id=_eid,
        title=f"DST unit workload {_eid[-1]}",
        paper_values={},
        run=_fn,
    ))


def expected_result(experiment_id: str, kwargs: Dict[str, Any]) -> Dict:
    """What an uncorrupted run of (*experiment_id*, *kwargs*) returns.

    Recomputed outside the scheduler/journal entirely — the ground
    truth the value-integrity invariant compares journal results to.
    """
    return _RUNNERS[experiment_id](**kwargs)


def make_tasks(n_tasks: int) -> List[CampaignTask]:
    """*n_tasks* campaign tasks cycling over the unit experiments."""
    ids = sorted(_RUNNERS)
    return [
        CampaignTask(
            task_id=f"dst-t{i}",
            experiment_id=ids[i % len(ids)],
            kwargs={"value": i},
            registry_spec=DST_REGISTRY_SPEC,
        )
        for i in range(n_tasks)
    ]


__all__ = [
    "DST_REGISTRY",
    "DST_REGISTRY_SPEC",
    "expected_result",
    "make_tasks",
]
