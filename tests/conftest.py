"""Shared fixtures for the test suite.

Thermal solves dominate test runtime, so fixtures cache coarse-grid
solutions at session scope; correctness properties (conservation,
ordering, maximum principle) hold at any resolution.
"""

import pytest

from repro.floorplan import core2duo_floorplan, stacked_cache_die
from repro.thermal.solver import SolverConfig, solve_steady_state
from repro.thermal.stack import DieSpec, build_stack

#: Coarse grid for fast thermal tests.
FAST_GRID = SolverConfig(nx=24, ny=24)


@pytest.fixture(scope="session")
def fast_solver_config():
    return FAST_GRID


@pytest.fixture(scope="session")
def baseline_die():
    return core2duo_floorplan()


@pytest.fixture(scope="session")
def planar_solution(baseline_die):
    return solve_steady_state(build_stack([DieSpec(baseline_die)]), FAST_GRID)


@pytest.fixture(scope="session")
def stacked_solution(baseline_die):
    cache = stacked_cache_die("sram-8mb", baseline_die)
    stack = build_stack([DieSpec(baseline_die), DieSpec(cache)])
    return solve_steady_state(stack, FAST_GRID)
