"""The 650-trace synthetic workload suite.

Section 2.2: "In all we ran over 650 single thread benchmark traces
including SPECINT, SPECFP, hand written kernels, multimedia, internet,
productivity, server, and workstation applications."

Each workload is summarized by the statistical profile an interval-style
performance model needs: instruction-mix frequencies, branch
predictability, dependence densities, and cache behaviour.  Profiles are
drawn deterministically (seeded) around per-category archetypes, so the
suite is reproducible and spans a realistic spread within each category.

The interval model evaluates a suite as :class:`SuiteColumns` — one
float64 array per numeric profile field — so one set of elementwise ops
covers every trace.  :func:`workload_suite` builds each seed's profiles
once per process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from functools import cache
from typing import Dict, Iterable, List, Tuple

import numpy as np

#: Workload categories and how many traces each contributes (total 656).
CATEGORY_COUNTS: Dict[str, int] = {
    "specint": 120,
    "specfp": 110,
    "kernels": 60,
    "multimedia": 90,
    "internet": 70,
    "productivity": 86,
    "server": 60,
    "workstation": 60,
}


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical profile of one single-threaded benchmark trace.

    Frequencies are per instruction unless noted.

    Attributes:
        name: e.g. ``"specint-017"``.
        category: One of :data:`CATEGORY_COUNTS`.
        branch_freq: Branch instructions per instruction.
        mispredict_rate: Mispredictions per branch.
        load_freq: Loads per instruction.
        store_freq: Stores per instruction.
        fp_freq: FP arithmetic ops per instruction.
        fp_load_freq: FP loads per instruction.
        load_chain_density: Fraction of loads feeding an address/critical
            chain (exposed to load-to-use latency).
        fp_chain_density: Fraction of FP ops on dependent chains (exposed
            to FP latency).
        base_ilp: Issue-limited micro-ops per cycle with no stalls.
        l1_miss_per_load: L1D misses per load.
        l2_miss_per_load: L2 misses per load (go to main memory).
        memory_latency: Main-memory latency in cycles.
    """

    name: str
    category: str
    branch_freq: float
    mispredict_rate: float
    load_freq: float
    store_freq: float
    fp_freq: float
    fp_load_freq: float
    load_chain_density: float
    fp_chain_density: float
    base_ilp: float
    l1_miss_per_load: float
    l2_miss_per_load: float
    memory_latency: float = 300.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and value < 0:
                raise ValueError(f"{f.name} must be non-negative")
        if self.base_ilp <= 0:
            raise ValueError("base_ilp must be positive")


#: Category archetypes: mean values the per-trace profiles scatter around.
_ARCHETYPES: Dict[str, Dict[str, float]] = {
    "specint": dict(branch_freq=0.20, mispredict_rate=0.050, load_freq=0.28,
                    store_freq=0.12, fp_freq=0.01, fp_load_freq=0.005,
                    load_chain_density=0.45, fp_chain_density=0.30,
                    base_ilp=2.2, l1_miss_per_load=0.04, l2_miss_per_load=0.004),
    "specfp": dict(branch_freq=0.06, mispredict_rate=0.015, load_freq=0.30,
                   store_freq=0.10, fp_freq=0.30, fp_load_freq=0.16,
                   load_chain_density=0.30, fp_chain_density=0.45,
                   base_ilp=2.6, l1_miss_per_load=0.06, l2_miss_per_load=0.010),
    "kernels": dict(branch_freq=0.05, mispredict_rate=0.010, load_freq=0.32,
                    store_freq=0.12, fp_freq=0.35, fp_load_freq=0.20,
                    load_chain_density=0.25, fp_chain_density=0.55,
                    base_ilp=2.8, l1_miss_per_load=0.05, l2_miss_per_load=0.006),
    "multimedia": dict(branch_freq=0.10, mispredict_rate=0.025, load_freq=0.30,
                       store_freq=0.14, fp_freq=0.22, fp_load_freq=0.12,
                       load_chain_density=0.30, fp_chain_density=0.35,
                       base_ilp=2.7, l1_miss_per_load=0.03, l2_miss_per_load=0.003),
    "internet": dict(branch_freq=0.22, mispredict_rate=0.060, load_freq=0.27,
                     store_freq=0.13, fp_freq=0.01, fp_load_freq=0.004,
                     load_chain_density=0.50, fp_chain_density=0.30,
                     base_ilp=2.0, l1_miss_per_load=0.05, l2_miss_per_load=0.005),
    "productivity": dict(branch_freq=0.20, mispredict_rate=0.045, load_freq=0.28,
                         store_freq=0.14, fp_freq=0.02, fp_load_freq=0.008,
                         load_chain_density=0.48, fp_chain_density=0.30,
                         base_ilp=2.1, l1_miss_per_load=0.035, l2_miss_per_load=0.003),
    "server": dict(branch_freq=0.19, mispredict_rate=0.040, load_freq=0.30,
                   store_freq=0.15, fp_freq=0.01, fp_load_freq=0.004,
                   load_chain_density=0.50, fp_chain_density=0.30,
                   base_ilp=1.9, l1_miss_per_load=0.08, l2_miss_per_load=0.015),
    "workstation": dict(branch_freq=0.13, mispredict_rate=0.030, load_freq=0.29,
                        store_freq=0.12, fp_freq=0.12, fp_load_freq=0.06,
                        load_chain_density=0.38, fp_chain_density=0.38,
                        base_ilp=2.4, l1_miss_per_load=0.05, l2_miss_per_load=0.007),
}

#: Relative scatter applied to each archetype parameter per trace.
_SCATTER = 0.30


def _jitter(rng: random.Random, mean: float, scatter: float = _SCATTER) -> float:
    """A positive value scattered around *mean* (truncated gaussian)."""
    value = rng.gauss(mean, mean * scatter)
    low = mean * 0.25
    high = mean * 2.5
    return min(max(value, low), high)


def make_profile(category: str, index: int, seed: int = 20061209) -> WorkloadProfile:
    """Deterministically generate trace *index* of *category*."""
    if category not in _ARCHETYPES:
        raise KeyError(
            f"unknown workload category {category!r}; "
            f"known: {sorted(_ARCHETYPES)}"
        )
    # A string seed keeps this deterministic across processes (tuple
    # hashes are randomized by PYTHONHASHSEED).
    rng = random.Random(f"{seed}-{category}-{index}")
    arch = _ARCHETYPES[category]
    values = {key: _jitter(rng, mean) for key, mean in arch.items()}
    # Densities and rates are probabilities: clamp to sensible ranges.
    for key in ("mispredict_rate", "l1_miss_per_load", "l2_miss_per_load"):
        values[key] = min(values[key], 0.25)
    for key in ("load_chain_density", "fp_chain_density"):
        values[key] = min(values[key], 0.9)
    values["base_ilp"] = min(max(values["base_ilp"], 1.2), 3.6)
    return WorkloadProfile(
        name=f"{category}-{index:03d}", category=category, **values
    )


@cache
def _suite_profiles(seed: int) -> Tuple[WorkloadProfile, ...]:
    return tuple(
        make_profile(category, index, seed)
        for category, count in CATEGORY_COUNTS.items()
        for index in range(count)
    )


def workload_suite(seed: int = 20061209) -> List[WorkloadProfile]:
    """The full 650+ trace suite, deterministic for a given seed.

    The (frozen) profiles are built once per process and seed; every
    call returns a fresh list of them.
    """
    return list(_suite_profiles(seed))




@dataclass(frozen=True, eq=False)
class SuiteColumns:
    """A suite as one float64 array per numeric :class:`WorkloadProfile`
    field, indexed in suite order."""

    branch_freq: np.ndarray
    mispredict_rate: np.ndarray
    load_freq: np.ndarray
    store_freq: np.ndarray
    fp_freq: np.ndarray
    fp_load_freq: np.ndarray
    load_chain_density: np.ndarray
    fp_chain_density: np.ndarray
    base_ilp: np.ndarray
    l1_miss_per_load: np.ndarray
    l2_miss_per_load: np.ndarray
    memory_latency: np.ndarray

    @classmethod
    def of(cls, profiles: Iterable[WorkloadProfile]) -> SuiteColumns:
        """The columns of *profiles*, in iteration order."""
        profiles = list(profiles)
        return cls(**{
            f.name: np.array(
                [getattr(p, f.name) for p in profiles], dtype=np.float64
            )
            for f in fields(cls)
        })

    def __len__(self) -> int:
        return len(self.base_ilp)
