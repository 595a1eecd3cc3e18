"""Campaign task model: what one supervised worker executes.

A :class:`CampaignTask` pins down one experiment invocation completely —
artifact id and keyword arguments — and derives a stable fingerprint
from the two, so the journal can recognize "this exact task already
completed" across processes and machines, and any journaled failure can
be re-run in isolation bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Any, Dict, List, Optional, Sequence

from repro.core.experiments import (
    ExperimentRegistry,
    REGISTRY,
    task_fingerprint,
)

#: Registry the worker imports when a task does not name its own.
DEFAULT_REGISTRY_SPEC = "repro.core.experiments:REGISTRY"


@dataclass(frozen=True)
class CampaignTask:
    """One unit of supervised work.

    Attributes:
        task_id: Unique id within the campaign (defaults to the
            experiment id).
        experiment_id: Registered artifact to run.
        kwargs: Keyword arguments forwarded to the experiment (a
            ``seed`` among them reaches the experiment like any other).
        registry_spec: ``"module.path:ATTRIBUTE"`` the worker imports to
            resolve ``experiment_id`` (tests point this at fixture
            registries; campaigns use the paper registry).
    """

    task_id: str
    experiment_id: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    registry_spec: str = DEFAULT_REGISTRY_SPEC

    @property
    def fingerprint(self) -> str:
        """Stable hash of (experiment_id, kwargs)."""
        return task_fingerprint(self.experiment_id, self.kwargs)

    def to_spec(self) -> Dict[str, Any]:
        """JSON-serializable description for the worker process."""
        return {
            "task_id": self.task_id,
            "experiment_id": self.experiment_id,
            "kwargs": dict(self.kwargs),
            "registry_spec": self.registry_spec,
            "fingerprint": self.fingerprint,
        }


def select_tasks(
    patterns: Sequence[str],
    kwargs: Optional[Dict[str, Any]] = None,
    registry: Optional[ExperimentRegistry] = None,
    registry_spec: str = DEFAULT_REGISTRY_SPEC,
) -> List[CampaignTask]:
    """Expand experiment-id globs into campaign tasks.

    Args:
        patterns: ``fnmatch`` globs over registered ids (``figure-*``);
            an empty sequence selects everything.
        kwargs: Keyword arguments every selected task carries.
        registry: Registry to match against (paper registry by default).
        registry_spec: Import spec the workers use to find the same
            registry.

    Raises:
        ValueError: a pattern matched nothing (a typo would otherwise
            silently shrink the campaign).
    """
    registry = registry or REGISTRY
    ids = registry.list()
    selected: List[str] = []
    for pattern in patterns or ["*"]:
        matches = [i for i in ids if fnmatch(i, pattern)]
        if not matches:
            raise ValueError(
                f"pattern {pattern!r} matches no experiment; known: {ids}"
            )
        selected.extend(m for m in matches if m not in selected)
    return [
        CampaignTask(
            task_id=experiment_id,
            experiment_id=experiment_id,
            kwargs=dict(kwargs or {}),
            registry_spec=registry_spec,
        )
        for experiment_id in selected
    ]
