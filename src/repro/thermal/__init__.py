"""3D die-stack thermal simulation.

Implements the paper's Section 2.3 modeling environment: steady-state heat
conduction (Equation 1 with the time derivative dropped) through the full
stacked-die / package / motherboard system of Figures 1 and 2, with
convective boundary conditions (Equation 2) on the heat-sink and
motherboard faces, solved by a structured-grid finite-volume method.
Material constants follow Table 2.

The public names below are re-exported lazily (PEP 562): each one is
imported from its submodule on first access.  Only
:mod:`repro.thermal.solver` and :mod:`repro.thermal.transient` import
scipy, so a process that reads the Table 2 constants or builds a
:class:`ThermalStack` but never solves heat (the Logic+Logic study,
the trace-driven memory study, ``repro serve``) never loads scipy.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List

#: Public name -> the submodule of this package that defines it.
_EXPORTS: Dict[str, str] = {
    "AMBIENT_C": "materials",
    "MATERIALS": "materials",
    "TABLE2_CONSTANTS": "materials",
    "Material": "materials",
    "DieSpec": "stack",
    "Layer": "stack",
    "ThermalStack": "stack",
    "build_stack": "stack",
    "DiscreteSystem": "solver",
    "SolverConfig": "solver",
    "ThermalOperator": "solver",
    "ThermalSolution": "solver",
    "TransientResult": "transient",
    "assemble_system": "solver",
    "clear_operator_cache": "solver",
    "geometry_key": "solver",
    "operator_cache_stats": "solver",
    "solve_steady_state": "solver",
    "solve_transient": "transient",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(f"{__name__}.{submodule}"), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
