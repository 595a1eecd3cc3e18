"""RPL2xx — the layering pass.

Derives the intra-package import graph of ``repro.*`` from the ASTs and
enforces the layer DAG (documented in DESIGN.md):

    0  resilience
    1  oracles, traces, floorplan
    2  thermal, memsim, uarch
    3  coupled
    4  core
    5  runner, analysis, validation, checks, bench
    6  service
    7  dst
    8  cli
    9  repro (top-level __init__), __main__

A module may import its own package and any package in a *strictly
lower* layer.  Importing upward is ``RPL201``; importing sideways
(another package in the same layer) is ``RPL202``; a package with no
layer assignment is ``RPL204`` (add new packages to the DAG
deliberately, not by accident).  Package-level strongly connected
components of size > 1 are reported once each as ``RPL203`` — a cycle
always implies at least one RPL201, but the cycle summary names the
whole knot.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.checks.diagnostics import Diagnostic, Explanation, PyFile

#: The repo's layer DAG.  Top-level modules (``repro/cli.py``) are
#: treated as single-module packages.  Subpackages share their parent's
#: layer (``repro.runner.backends.*`` is ``runner``, layer 5): the
#: scheduler/backend split is an *intra*-package seam, invisible to the
#: DAG on purpose — backends may import runner policy modules and vice
#: versa without a layering exemption.
DEFAULT_LAYERS: Dict[str, int] = {
    "resilience": 0,
    "oracles": 1,
    "traces": 1,
    "floorplan": 1,
    "thermal": 2,
    "memsim": 2,
    "uarch": 2,
    "coupled": 3,  # closes the loop over thermal + uarch; core drives it
    "core": 4,
    "runner": 5,
    "analysis": 5,
    "validation": 5,
    "checks": 5,
    "bench": 5,
    "service": 6,  # schedules campaigns; only dst and cli may import it
    "dst": 7,  # simulation harness drives runner + service from above
    "cli": 8,
    "__main__": 9,  # delegates to cli by design
    "repro": 9,  # the top-level __init__ re-exports from anywhere
}


def module_package(module: str, top: str) -> str:
    """Map a dotted module name to its layer-owning package.

    ``repro.thermal.solver`` -> ``thermal``; ``repro.cli`` -> ``cli``;
    ``repro`` itself -> ``repro``.
    """
    parts = module.split(".")
    if parts[0] != top or len(parts) == 1:
        return parts[0] if parts[0] != top else top
    return parts[1]


def _imported_modules(pf: PyFile, top: str) -> List[Tuple[str, ast.AST]]:
    """All ``<top>.*`` modules a file imports, with the import node."""
    found: List[Tuple[str, ast.AST]] = []
    for node in ast.walk(pf.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == top or alias.name.startswith(top + "."):
                    found.append((alias.name, node))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # resolve "from . import x" against the file's module
                base = pf.module.split(".")
                base = base[: len(base) - node.level]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            if module == top or module.startswith(top + "."):
                found.append((module, node))
    return found


def run(
    files: Iterable[PyFile],
    layers: Dict[str, int] = None,
    top: str = "repro",
) -> List[Diagnostic]:
    """The layering pass over a set of files."""
    layers = DEFAULT_LAYERS if layers is None else layers
    out: List[Diagnostic] = []
    #: package -> set of packages it imports (for cycle detection).
    graph: Dict[str, Set[str]] = {}
    #: first file seen per package (anchor for cycle diagnostics).
    anchors: Dict[str, PyFile] = {}

    for pf in sorted(files, key=lambda f: f.rel):
        src_pkg = module_package(pf.module, top)
        anchors.setdefault(src_pkg, pf)
        src_layer = layers.get(src_pkg)
        for module, node in _imported_modules(pf, top):
            dst_pkg = module_package(module, top)
            if dst_pkg == src_pkg:
                continue
            graph.setdefault(src_pkg, set()).add(dst_pkg)
            if dst_pkg not in layers:
                out.append(pf.diag(
                    node, "RPL204",
                    f"import of {module!r}: package {dst_pkg!r} has no "
                    f"assigned layer; add it to the layer DAG",
                ))
                continue
            if src_layer is None:
                # the source package itself is unassigned; RPL204 on its
                # own imports would be noise — one finding per edge from
                # the unknown side is enough.
                out.append(pf.diag(
                    node, "RPL204",
                    f"module {pf.module!r}: package {src_pkg!r} has no "
                    f"assigned layer; add it to the layer DAG",
                ))
                continue
            dst_layer = layers[dst_pkg]
            if dst_layer > src_layer:
                out.append(pf.diag(
                    node, "RPL201",
                    f"upward import: {src_pkg!r} (layer {src_layer}) "
                    f"imports {module!r} (layer {dst_layer})",
                ))
            elif dst_layer == src_layer:
                out.append(pf.diag(
                    node, "RPL202",
                    f"cross-layer import: {src_pkg!r} and {dst_pkg!r} are "
                    f"both layer {src_layer}; route through a lower layer",
                ))

    for scc in _cycles(graph):
        cycle = " -> ".join(scc + [scc[0]])
        anchor = anchors.get(scc[0])
        if anchor is None:  # pragma: no cover - scc members always anchored
            continue
        out.append(Diagnostic(
            path=anchor.rel,
            line=1,
            col=0,
            code="RPL203",
            message=f"package import cycle: {cycle}",
            context=f"cycle:{'|'.join(scc)}",
        ))
    return out


def _cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly connected components of size > 1, each sorted, sorted.

    Tarjan's algorithm, iterative (no recursion-limit surprises).
    """
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    sccs: List[List[str]] = []

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in graph and succ not in index:
                    continue  # edge to a leaf package: can't close a cycle
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return sorted(sccs)


EXPLANATIONS = {
    "RPL201": Explanation(
        code="RPL201",
        title="upward import (lower layer imports higher)",
        rationale=(
            "The package DAG (core -> thermal/power -> arch -> bench "
            "-> runner/service ...) keeps physics importable without "
            "dragging in schedulers. An upward import inverts the "
            "dependency and eventually forces a cycle."
        ),
        example="# in core/units.py\nfrom repro.runner.scheduler import ...",
        fix=(
            "Move the shared piece down a layer, or pass the higher-"
            "layer object in as a parameter/callback."
        ),
    ),
    "RPL202": Explanation(
        code="RPL202",
        title="cross-layer import between same-layer packages",
        rationale=(
            "Sibling packages on one layer are alternatives, not "
            "dependencies (thermal must not import power); coupling "
            "them makes the layer unsplittable."
        ),
        example="# in thermal/solver.py\nfrom repro.power.models import ...",
        fix="Hoist the shared type into the layer below (e.g. core).",
    ),
    "RPL203": Explanation(
        code="RPL203",
        title="package import cycle",
        rationale=(
            "A cycle between packages means neither can be imported, "
            "tested or reasoned about alone; import order starts to "
            "matter and partial-initialisation bugs follow."
        ),
        example="resilience -> runner -> resilience",
        fix=(
            "Break the cycle with an interface module in a lower "
            "layer, or defer one import into the function that needs "
            "it."
        ),
    ),
    "RPL204": Explanation(
        code="RPL204",
        title="import of a package with no assigned layer",
        rationale=(
            "Every top-level package must appear in the layering map; "
            "an unmapped package is invisible to RPL201-203 and its "
            "imports are unchecked."
        ),
        example="from repro.newpkg import thing   # newpkg not in LAYERS",
        fix="Add the package to DEFAULT_LAYERS in checks/layering.py.",
    ),
}
