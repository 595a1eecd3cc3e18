"""Seed-derived fault schedules and their replay artifacts.

A schedule is a finite list of :class:`FaultEvent` records, each
addressed to a **site** (a named decision point in the simulated world)
and armed at a **step** (that site's own occurrence counter).  Sites
pull their due events with :meth:`FaultSchedule.fire`; an event fires
at most once per history.  Because events are addressed by
``(site, step)`` rather than drawn from a shared RNG stream, removing
one event during shrinking never reshuffles the survivors — the
property the shrinker's bisection depends on.

Sites and kinds:

========== ===================== =====================================
site       kinds                 step counts...
========== ===================== =====================================
executor   crash, crash-zombie,  scheduler-fabric polls
           stall, partition,
           flaky, hang, duplicate
clock      clock-jump            scheduler-fabric polls
journal    torn-write            journal appends (cumulative)
service    svc-backend-fail,     rounds of traffic to the real service
           svc-flood
cache      cache-flip            result-cache stores
========== ===================== =====================================

``generate_schedule(seed, profile)`` derives everything from the seed;
``save_artifact``/``load_artifact`` round-trip a schedule through the
JSON file the shrinker emits and ``repro dst --replay`` consumes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

ARTIFACT_VERSION = 1

#: Exploration profiles: how long a history runs and how much chaos it
#: carries.  ``quick`` is the per-PR CI profile; ``deep`` the manual
#: extended batch.
PROFILES: Dict[str, Dict[str, int]] = {
    "quick": {"n_tasks": 4, "n_events": 7, "horizon": 160},
    "deep": {"n_tasks": 6, "n_events": 14, "horizon": 400},
}

_EXECUTOR_KINDS = (
    "crash", "crash-zombie", "stall", "partition", "flaky", "hang",
    "duplicate",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fires when *site* reaches *step*.

    Attributes:
        step: The addressed site's occurrence counter value at (or
            after) which the event fires.
        site: Decision point, e.g. ``executor:1``, ``clock``,
            ``journal``, ``service``, ``cache``.
        kind: Fault kind (see module docstring).
        arg: Kind-specific magnitude — partition length in polls,
            clock-jump seconds, torn-write byte fraction.
    """

    step: int
    site: str
    kind: str
    arg: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "step": self.step, "site": self.site,
            "kind": self.kind, "arg": self.arg,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        return cls(
            step=int(data["step"]),
            site=str(data["site"]),
            kind=str(data["kind"]),
            arg=float(data.get("arg", 0.0)),
        )


class FaultSchedule:
    """A fixed list of fault events with once-only firing semantics."""

    def __init__(self, events: Sequence[FaultEvent]) -> None:
        self.events: List[FaultEvent] = sorted(
            events, key=lambda e: (e.site, e.step, e.kind, e.arg)
        )
        self._fired: set = set()

    def __len__(self) -> int:
        return len(self.events)

    def reset(self) -> None:
        """Forget firing state (a fresh history over the same events)."""
        self._fired = set()

    def fire(self, site: str, position: int) -> List[FaultEvent]:
        """Due, not-yet-fired events for *site* at occurrence *position*.

        Events armed at earlier steps that their site skipped past
        (e.g. an executor that died before reaching the step) still
        fire at the next opportunity — faults are delivered late, never
        silently dropped, so shrinking cannot hide an event by shifting
        counters.
        """
        due: List[FaultEvent] = []
        for index, event in enumerate(self.events):
            if index in self._fired or event.site != site:
                continue
            if event.step <= position:
                self._fired.add(index)
                due.append(event)
        return due

    def pending(self) -> List[FaultEvent]:
        return [
            e for i, e in enumerate(self.events) if i not in self._fired
        ]


def generate_schedule(
    seed: int, profile: str = "quick", n_executors: int = 2
) -> FaultSchedule:
    """Derive a fault schedule from *seed* alone.

    A string-keyed :class:`random.Random` (SHA-512 seeded, stable
    across processes regardless of ``PYTHONHASHSEED``) picks the event
    count, sites, kinds, steps, and magnitudes.  Same seed, same
    profile -> byte-identical schedule, which is what makes a bare seed
    number a complete repro recipe.
    """
    if profile not in PROFILES:
        raise ValueError(
            f"unknown DST profile {profile!r}; known: "
            + ", ".join(sorted(PROFILES))
        )
    params = PROFILES[profile]
    rng = random.Random(f"dst-schedule:{seed}:{profile}")
    horizon = params["horizon"]
    events: List[FaultEvent] = []
    for _ in range(rng.randint(max(1, params["n_events"] - 3),
                               params["n_events"])):
        roll = rng.random()
        if roll < 0.55:
            kind = rng.choice(_EXECUTOR_KINDS)
            site = f"executor:{rng.randrange(n_executors)}"
            arg = 0.0
            if kind == "partition":
                arg = float(rng.randint(3, 12))  # polls blackholed
            events.append(FaultEvent(
                step=rng.randrange(horizon), site=site, kind=kind, arg=arg,
            ))
        elif roll < 0.68:
            events.append(FaultEvent(
                step=rng.randrange(horizon), site="clock",
                kind="clock-jump", arg=round(rng.uniform(0.5, 30.0), 3),
            ))
        elif roll < 0.82:
            # Torn write at append N, cutting the line at a fraction of
            # its serialized length.
            events.append(FaultEvent(
                step=rng.randrange(2, 40), site="journal",
                kind="torn-write", arg=round(rng.uniform(0.05, 0.95), 3),
            ))
        elif roll < 0.93:
            events.append(FaultEvent(
                step=rng.randrange(30), site="service",
                kind=rng.choice(("svc-backend-fail", "svc-flood")),
                arg=float(rng.randint(1, 6)),
            ))
        else:
            events.append(FaultEvent(
                step=rng.randrange(8), site="cache", kind="cache-flip",
            ))
    return FaultSchedule(events)


def save_artifact(
    path: Union[str, Path],
    seed: int,
    schedule: FaultSchedule,
    profile: str = "quick",
    violations: Optional[Sequence[str]] = None,
) -> Path:
    """Write the replayable ``(seed, schedule)`` artifact as JSON."""
    payload = {
        "version": ARTIFACT_VERSION,
        "seed": int(seed),
        "profile": profile,
        "events": [e.to_dict() for e in schedule.events],
        "violations": list(violations or []),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_artifact(path: Union[str, Path]) -> Dict[str, Any]:
    """Load an artifact: ``{seed, profile, schedule, violations}``."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    version = data.get("version")
    if version != ARTIFACT_VERSION:
        raise ValueError(
            f"DST artifact {path} has version {version!r}; this build "
            f"replays version {ARTIFACT_VERSION}"
        )
    return {
        "seed": int(data["seed"]),
        "profile": str(data.get("profile", "quick")),
        "schedule": FaultSchedule(
            [FaultEvent.from_dict(e) for e in data.get("events", [])]
        ),
        "violations": list(data.get("violations", [])),
    }


__all__ = [
    "ARTIFACT_VERSION",
    "FaultEvent",
    "FaultSchedule",
    "PROFILES",
    "generate_schedule",
    "load_artifact",
    "save_artifact",
]
