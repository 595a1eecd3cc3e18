"""RPL4xx — the physics-hygiene pass.

Table 2's material constants (and the calibrated package constants
around them) live in ``thermal/materials.py``; the planar power skews
live in named module constants.  A bare numeric literal for a
conductivity, thickness, power, or heat-transfer coefficient anywhere
else in ``thermal/`` or ``uarch/power.py`` bypasses that single source
of truth — two call sites can silently drift apart, and a recalibration
misses one of them.

The pass flags literals at *use sites* (call arguments and parameter
defaults).  Named module-level constants are the remedy, not the
disease, so assignments like ``HEATSINK_H_EFF = 5400.0`` are fine.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional

from repro.checks.diagnostics import Diagnostic, Explanation, PyFile

#: Files the pass scans (prefix match on package-root-relative paths).
DEFAULT_SCOPE = ("thermal/", "uarch/power.py")

#: The constants module itself is exempt — it is the source of truth.
DEFAULT_EXEMPT = ("thermal/materials.py",)

#: Parameter/keyword names that denote physical quantities.
PHYSICS_NAME_RE = re.compile(
    r"(conductivity|thickness|heat_capacity|h_eff|htc|ambient"
    r"|power_w|total_w|planar_w|tdp|watts|emissivity|density_w)",
)

#: Method names whose single argument is a physical quantity.
PHYSICS_METHODS = frozenset({"with_conductivity"})


def _numeric_literal(node: ast.AST) -> Optional[float]:
    """The value of an int/float literal (incl. unary minus), else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return float(node.value)
    return None


def in_scope(rel: str) -> bool:
    if rel in DEFAULT_EXEMPT:
        return False
    return any(rel == s or rel.startswith(s) for s in DEFAULT_SCOPE)


def check_file(pf: PyFile) -> List[Diagnostic]:
    """Run the physics-hygiene pass over one in-scope file."""
    out: List[Diagnostic] = []
    for node in ast.walk(pf.tree):
        if isinstance(node, ast.Call):
            func = node.func
            # Material("x", 390.0) outside materials.py -----------------
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name == "Material":
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    value = _numeric_literal(arg)
                    if value is not None:
                        out.append(pf.diag(
                            arg, "RPL401",
                            f"Material constructed from the bare literal "
                            f"{value:g}; define it in thermal.materials",
                        ))
                continue
            if name in PHYSICS_METHODS:
                for arg in node.args:
                    value = _numeric_literal(arg)
                    if value is not None:
                        out.append(pf.diag(
                            arg, "RPL402",
                            f"bare literal {value:g} passed to {name}(); "
                            f"use a named constant from thermal.materials",
                        ))
            for kw in node.keywords:
                if kw.arg and PHYSICS_NAME_RE.search(kw.arg):
                    value = _numeric_literal(kw.value)
                    if value is not None:
                        out.append(pf.diag(
                            kw.value, "RPL402",
                            f"bare literal {value:g} for physical keyword "
                            f"{kw.arg!r}; use a named constant",
                        ))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = args.defaults
            # defaults align with the tail of the positional list
            for arg, default in zip(positional[len(positional) - len(defaults):],
                                    defaults):
                _flag_default(pf, node, arg, default, out)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    _flag_default(pf, node, arg, default, out)
    return out


def _flag_default(
    pf: PyFile,
    fn: ast.AST,
    arg: ast.arg,
    default: ast.AST,
    out: List[Diagnostic],
) -> None:
    if not PHYSICS_NAME_RE.search(arg.arg):
        return
    value = _numeric_literal(default)
    if value is not None:
        out.append(pf.diag(
            default, "RPL403",
            f"bare literal {value:g} as default for physical parameter "
            f"{arg.arg!r} of {getattr(fn, 'name', '?')}(); "
            f"use a named constant",
        ))


def run(files: Iterable[PyFile]) -> List[Diagnostic]:
    """The physics-hygiene pass over a set of files."""
    return [d for pf in files if in_scope(pf.rel) for d in check_file(pf)]


EXPLANATIONS = {
    "RPL401": Explanation(
        code="RPL401",
        title="Material constructed from a bare literal",
        rationale=(
            "Material properties (conductivity, heat capacity) must "
            "come from the named-constant tables so every physical "
            "number is cited and unit-checked once; a bare literal "
            "bypasses both."
        ),
        example="m = Material(k=1.5, c=1.75e6)",
        fix="m = Material(k=K_SILICON_W_MK, c=C_SILICON_J_M3K)",
    ),
    "RPL402": Explanation(
        code="RPL402",
        title="bare physics literal at a call site",
        rationale=(
            "A numeric literal with physics units passed straight "
            "into a solver call cannot be audited against the paper; "
            "named constants carry the unit and the citation."
        ),
        example="solve(dt=0.001, k=149.0)",
        fix="solve(dt=DT_S, k=K_SILICON_W_MK)",
    ),
    "RPL403": Explanation(
        code="RPL403",
        title="bare physics literal as a parameter default",
        rationale=(
            "Defaults are the most-silently-used values in the "
            "codebase; a physics default must be a named constant so "
            "changing it is one reviewed edit, not a scavenger hunt."
        ),
        example="def simulate(k=149.0):",
        fix="def simulate(k=K_SILICON_W_MK):",
    ),
}
