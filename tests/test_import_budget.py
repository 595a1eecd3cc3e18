"""Only code that solves heat imports scipy.

Each probe runs in a fresh interpreter, because this test process has
long since imported everything.  The entry points below never solve
heat, so none of them may leave scipy (or the thermal solver modules)
in ``sys.modules``; a thermal experiment, as the control, must.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.thermal as thermal

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules that only a heat solve needs.
HEAT_MODULES = (
    "scipy",
    "repro.thermal.solver",
    "repro.thermal.transient",
)

NO_HEAT_PROBES = {
    "cli": "import repro.cli",
    "service": (
        "import sys\n"
        "from repro.service.server import ReproService, ServiceConfig\n"
        "ReproService(ServiceConfig(data_dir=sys.argv[1]))"
    ),
    "table-4": (
        "from repro.core.experiments import run_experiment\n"
        "assert run_experiment('table-4').ok"
    ),
    "headlines": (
        "from repro.core.experiments import run_experiment\n"
        "assert run_experiment('headlines').ok"
    ),
    "dst-harness": "import repro.dst.harness",
    "validation": "import repro.validation",
    "memory-performance": (
        "from repro.core.memory_on_logic import run_performance_study"
    ),
    "thermal-materials": "import repro.thermal.materials",
    "thermal-stack": (
        "from repro.floorplan.pentium4 import pentium4_3d_floorplans\n"
        "from repro.thermal import DieSpec, build_stack\n"
        "build_stack([DieSpec(p) for p in pentium4_3d_floorplans()])"
    ),
}


def loaded_heat_modules(code, *argv):
    """Run *code* in a fresh interpreter; the heat modules it left loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    probe = (
        f"{code}\n"
        "import json, sys\n"
        f"print(json.dumps([m for m in {HEAT_MODULES!r} if m in sys.modules]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("probe", sorted(NO_HEAT_PROBES))
def test_entry_point_without_heat_leaves_scipy_unloaded(probe, tmp_path):
    assert loaded_heat_modules(NO_HEAT_PROBES[probe], str(tmp_path)) == []


def test_thermal_experiment_loads_scipy():
    loaded = loaded_heat_modules(
        "from repro.core.experiments import run_experiment\n"
        "assert run_experiment('figure-3', nx=12).ok"
    )
    assert "scipy" in loaded
    assert "repro.thermal.solver" in loaded


class TestLazyThermalPackage:
    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from repro.thermal import *", namespace)
        assert set(thermal.__all__) <= set(namespace)
        assert namespace["solve_steady_state"] is (
            thermal.solver.solve_steady_state
        )

    def test_dir_lists_every_public_name(self):
        assert set(thermal.__all__) <= set(dir(thermal))

    def test_misspelt_name_raises_naming_the_package(self):
        with pytest.raises(AttributeError, match="repro.thermal"):
            thermal.solve_steady_stat  # noqa: B018
