"""RPL3xx — the experiment-contract pass.

The registry in ``core/experiments.py`` is the map from this repo to the
paper: every entry must say which figure/table it reproduces, must run
through the fingerprinted ``run_experiment`` machinery, and must
be exercised by at least one test.  The kernel registry in
``traces/kernels/registry.py`` must stay the paper's Table 1 workload
set — no drive-by kernels, no silently dropped workloads.

All checks are static: the registry module is parsed, never imported.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.checks.diagnostics import Diagnostic, Explanation, PyFile

#: Where the experiment registry lives, package-root-relative.
EXPERIMENTS_REL = "core/experiments.py"

#: Where the kernel registry lives, package-root-relative.
KERNELS_REL = "traces/kernels/registry.py"

#: The paper's Table 1 RMS workload set (Section 3).
TABLE1_WORKLOADS = frozenset({
    "conj", "dsym", "gauss", "pcg", "smvm", "ssym",
    "strans", "savdf", "savif", "sus", "svd", "svm",
})

#: Experiment ids that name no single figure/table; their docstrings
#: must mention the id stem instead.
_ARTIFACT_RE = re.compile(r"^(figure|table)-(\w+)$")


def _experiment_entries(tree: ast.Module) -> List[Dict[str, object]]:
    """``Experiment(id=..., run=...)`` constructions in the module."""
    entries: List[Dict[str, object]] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Experiment"):
            continue
        entry: Dict[str, object] = {"node": node}
        for kw in node.keywords:
            if kw.arg == "id" and isinstance(kw.value, ast.Constant):
                entry["id"] = kw.value.value
            elif kw.arg == "run" and isinstance(kw.value, ast.Name):
                entry["run"] = kw.value.id
        entries.append(entry)
    return entries


def _functions(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _docstring_names_artifact(doc: str, experiment_id: str) -> bool:
    """Does the docstring name the paper artifact the id encodes?

    ``figure-5`` is named by "figure 5" / "Figure 5" / "figure-5";
    a non-figure/table id like ``headlines`` is named by its stem.
    """
    text = doc.lower()
    match = _ARTIFACT_RE.match(experiment_id)
    if match:
        kind, num = match.groups()
        return (
            f"{kind} {num}" in text
            or f"{kind}-{num}" in text
            or f"{kind}s {num}" in text
        )
    stem = experiment_id.split("-")[0].rstrip("s")
    return stem in text


def _test_sources(tests_dir: Optional[Path]) -> Dict[str, str]:
    if tests_dir is None or not tests_dir.is_dir():
        return {}
    return {
        path.name: path.read_text(encoding="utf-8", errors="replace")
        for path in sorted(tests_dir.glob("**/*.py"))
    }


def check_experiments(
    pf: PyFile, tests_dir: Optional[Path]
) -> List[Diagnostic]:
    """Contract checks over the experiment registry module."""
    out: List[Diagnostic] = []
    functions = _functions(pf.tree)
    tests = _test_sources(tests_dir)

    for entry in _experiment_entries(pf.tree):
        node = entry["node"]
        experiment_id = entry.get("id")
        if not isinstance(experiment_id, str):
            out.append(pf.diag(
                node, "RPL302",
                "Experiment registered without a literal string id; the "
                "paper-artifact mapping cannot be checked",
            ))
            continue
        run_name = entry.get("run")
        fn = functions.get(run_name) if isinstance(run_name, str) else None
        if fn is not None:
            doc = ast.get_docstring(fn)
            if not doc:
                out.append(pf.diag(
                    fn, "RPL301",
                    f"run callable {fn.name}() for experiment "
                    f"{experiment_id!r} has no docstring; it must name the "
                    f"paper figure/table it reproduces",
                ))
            elif not _docstring_names_artifact(doc, experiment_id):
                out.append(pf.diag(
                    fn, "RPL302",
                    f"docstring of {fn.name}() does not name the paper "
                    f"artifact of experiment {experiment_id!r}",
                ))
            if not fn.args.kwarg:
                out.append(pf.diag(
                    fn, "RPL303",
                    f"run callable {fn.name}() for experiment "
                    f"{experiment_id!r} does not accept **kwargs; journaled "
                    f"kwargs could not round-trip through the fingerprint",
                ))
        if tests and not any(experiment_id in src for src in tests.values()):
            out.append(pf.diag(
                node, "RPL304",
                f"experiment {experiment_id!r} is referenced by no test "
                f"under tests/",
            ))
    return out


def check_kernels(pf: PyFile) -> List[Diagnostic]:
    """Table 1 mapping checks over the kernel registry module."""
    out: List[Diagnostic] = []
    registered: Dict[str, ast.Call] = {}
    for node in ast.walk(pf.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "KernelEntry"):
            continue
        name: Optional[str] = None
        if node.args and isinstance(node.args[0], ast.Constant):
            name = node.args[0].value
        for kw in node.keywords:
            if kw.arg == "name" and isinstance(kw.value, ast.Constant):
                name = kw.value.value
        if isinstance(name, str):
            registered[name] = node
    # Only meaningful if this really is the registry (it constructs
    # KernelEntry values); an empty module produces no findings.
    for name, node in sorted(registered.items()):
        if name not in TABLE1_WORKLOADS:
            out.append(pf.diag(
                node, "RPL305",
                f"kernel {name!r} does not map to a Table 1 workload "
                f"({sorted(TABLE1_WORKLOADS)})",
            ))
    if registered:
        for missing in sorted(TABLE1_WORKLOADS - set(registered)):
            out.append(Diagnostic(
                path=pf.rel, line=1, col=0, code="RPL306",
                message=f"Table 1 workload {missing!r} is missing from the "
                        f"kernel registry",
                context=f"missing:{missing}",
            ))
    return out


def run(
    files: Iterable[PyFile],
    tests_dir: Optional[Path] = None,
) -> List[Diagnostic]:
    """The contract pass over a set of files."""
    out: List[Diagnostic] = []
    for pf in files:
        if pf.rel == EXPERIMENTS_REL:
            out.extend(check_experiments(pf, tests_dir))
        elif pf.rel == KERNELS_REL:
            out.extend(check_kernels(pf))
    return out


EXPLANATIONS = {
    "RPL301": Explanation(
        code="RPL301",
        title="experiment run callable has no docstring",
        rationale=(
            "Each experiment reproduces a specific artifact of the "
            "paper; the docstring is where that claim lives, and the "
            "docs/NOTES tooling extracts it."
        ),
        example="def run(**kwargs):\n    ...",
        fix='def run(**kwargs):\n    """Reproduces Figure 4 ..."""',
    ),
    "RPL302": Explanation(
        code="RPL302",
        title="docstring does not name the paper artifact",
        rationale=(
            "A run docstring must cite the figure/table/section it "
            "reproduces (e.g. 'Figure 6', 'Table 1'); otherwise the "
            "experiment cannot be traced back to the paper."
        ),
        example='"""Runs the thing."""',
        fix='"""Reproduces Table 1 (3D vs 2D pipeline) ..."""',
    ),
    "RPL303": Explanation(
        code="RPL303",
        title="run callable does not accept **kwargs",
        rationale=(
            "The registry dispatches sweep points as keyword "
            "arguments; a run() without **kwargs breaks forward "
            "compatibility when a sweep adds an axis."
        ),
        example="def run(spec):\n    ...",
        fix="def run(spec=None, **kwargs):\n    ...",
    ),
    "RPL304": Explanation(
        code="RPL304",
        title="experiment id referenced by no test",
        rationale=(
            "Every registered experiment needs at least one test that "
            "names it; unreferenced experiments rot silently and fail "
            "only in full campaigns."
        ),
        example='REGISTRY["fig9_new"] = ...   # no test mentions fig9_new',
        fix="Add a test that runs (or at least smoke-loads) the id.",
    ),
    "RPL305": Explanation(
        code="RPL305",
        title="trace kernel not in the Table 1 workload set",
        rationale=(
            "The synthetic trace kernels model the paper's Table 1 "
            "workload mix; a kernel outside that set would make "
            "bench results incomparable to the paper."
        ),
        example='KERNELS["crypto"] = ...',
        fix="Use a Table 1 workload, or extend the set deliberately "
            "in one reviewed change.",
    ),
    "RPL306": Explanation(
        code="RPL306",
        title="Table 1 workload missing from the registry",
        rationale=(
            "Coverage must be total in both directions: every Table 1 "
            "workload needs a kernel, or the reproduction silently "
            "shrinks the workload mix."
        ),
        example="# KERNELS lacks 'ammp' while Table 1 lists it",
        fix="Add the missing kernel (or document its exclusion).",
    ),
}
