"""Fast fixture experiments for campaign-runner tests.

Worker subprocesses import this module by spec
(``tests.campaign_fixtures:FAST_REGISTRY``), so every experiment here
must be importable outside pytest and cheap: supervisor tests spawn a
real interpreter per attempt.
"""

from __future__ import annotations

import json
import random
import time
from typing import Any, Dict

from repro.core.experiments import Experiment, ExperimentRegistry

#: Import spec the supervisor hands to workers.
FAST_REGISTRY_SPEC = "tests.campaign_fixtures:FAST_REGISTRY"


def _run_quick(**kwargs: Any) -> Dict[str, Any]:
    # A draw keyed on the task's own kwargs: deterministic across
    # processes and retries, so resume results are bit-identical.
    rng = random.Random(json.dumps(kwargs, sort_keys=True))
    return {"value": kwargs.get("value", 42), "rand": rng.random()}


def _run_boom(**kwargs: Any) -> Dict[str, Any]:
    raise ValueError("intentional fixture failure")


def _run_slow(**kwargs: Any) -> Dict[str, Any]:
    time.sleep(kwargs.get("sleep_s", 30.0))
    return {"slept": True}


FAST_REGISTRY = ExperimentRegistry()
for _e in [
    Experiment("quick", "returns instantly", {}, _run_quick),
    Experiment("quick-2", "returns instantly too", {}, _run_quick),
    Experiment("boom", "always raises", {}, _run_boom),
    Experiment("slow", "sleeps forever-ish", {}, _run_slow),
]:
    FAST_REGISTRY.register(_e)
