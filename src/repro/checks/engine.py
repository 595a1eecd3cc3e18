"""The ``repro lint`` engine: file discovery, pass orchestration, output.

Exit codes (mirroring the sweep command's "usage vs. outcome" split):

* ``0`` — no findings;
* ``2`` — any finding, including a scanned file that does not parse;
* argparse itself exits 2 on bad usage.

The engine never imports the code it scans; everything is AST-level, so
a broken simulator module yields an ``RPL000`` diagnostic instead of an
import error.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.checks import contracts, determinism, layering, physics
from repro.checks.diagnostics import CODES, Diagnostic, Explanation, PyFile
from repro.checks.flow import asyncsafety, concurrency

PASSES = (
    "determinism", "layering", "contracts", "physics",
    "concurrency", "async",
)


def package_root() -> Path:
    """The installed ``repro`` package directory (scan root)."""
    return Path(__file__).resolve().parents[1]


def repo_root() -> Path:
    """Best-effort repository root (``src/repro`` layout -> two up)."""
    return package_root().parents[1]


def load_files(
    root: Path, top: str = "repro"
) -> List[PyFile]:
    """Parse every ``*.py`` under *root* into :class:`PyFile` records.

    Unparseable files are returned as pseudo-files with an empty AST; the
    engine reports them as ``RPL000`` (they cannot be analyzed, which is
    itself a violation).
    """
    files: List[PyFile] = []
    for path in sorted(Path(root).rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(root).as_posix()
        dotted = rel[: -len(".py")].replace("/", ".")
        if dotted.endswith("__init__"):
            dotted = dotted[: -len(".__init__")] if "." in dotted else ""
        module = f"{top}.{dotted}" if dotted else top
        text = path.read_text(encoding="utf-8", errors="replace")
        lines = text.splitlines()
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            files.append(PyFile(
                rel=rel, module=module,
                tree=ast.Module(body=[], type_ignores=[]),
                lines=lines,
                parse_error=f"{type(exc).__name__} at line {exc.lineno}",
            ))
            continue
        files.append(PyFile(rel=rel, module=module, tree=tree, lines=lines))
    return files


@dataclass
class LintReport:
    """Everything one lint run produced.

    Attributes:
        root: Scanned package root.
        diagnostics: Every finding, sorted; any one fails the run.
    """

    root: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def counts(self) -> Dict[str, int]:
        per_pass: Dict[str, int] = {name: 0 for name in PASSES}
        for diag in self.diagnostics:
            per_pass[diag.pass_name] = per_pass.get(diag.pass_name, 0) + 1
        return {
            "total": len(self.diagnostics),
            **{f"pass:{name}": count for name, count in sorted(per_pass.items())},
        }


def _select_filter(
    diagnostics: Iterable[Diagnostic], select: Optional[Sequence[str]]
) -> List[Diagnostic]:
    if not select:
        return list(diagnostics)
    prefixes = tuple(s.strip().upper() for s in select if s.strip())
    return [d for d in diagnostics if d.code.startswith(prefixes)]


def run_passes(
    files: List[PyFile],
    tests_dir: Optional[Path] = None,
) -> List[Diagnostic]:
    """All passes (plus parse-failure reporting) over parsed files."""
    out: List[Diagnostic] = []
    for pf in files:
        if pf.parse_error:
            out.append(Diagnostic(
                path=pf.rel, line=1, col=0, code="RPL000",
                message=f"file does not parse ({pf.parse_error})",
                context="parse-failure",
            ))
    out.extend(determinism.run(files))
    out.extend(layering.run(files))
    out.extend(contracts.run(files, tests_dir=tests_dir))
    out.extend(physics.run(files))
    out.extend(concurrency.run(files))
    out.extend(asyncsafety.run(files))
    return sorted(out)


def run_lint(
    root: Optional[Path] = None,
    tests_dir: Optional[Path] = None,
    select: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run every pass; the CLI's workhorse.

    Args:
        root: Package directory to scan (default: the installed
            ``repro`` package).
        tests_dir: Tests directory for the contract pass's
            "referenced by a test" check (default: ``tests/`` at the
            repo root, skipped if absent).
        select: Code prefixes to keep (e.g. ``["RPL1", "RPL203"]``).
    """
    root = Path(root) if root is not None else package_root()
    if tests_dir is None:
        candidate = repo_root() / "tests"
        tests_dir = candidate if candidate.is_dir() else None
    files = load_files(root)
    diagnostics = _select_filter(run_passes(files, tests_dir), select)
    return LintReport(root=str(root), diagnostics=diagnostics)


def render_text(report: LintReport) -> str:
    """Human rendering: every finding, then the tally and verdict."""
    lines = [diag.render() for diag in report.diagnostics]
    lines.append(
        f"repro lint: {len(report.diagnostics)} finding(s) "
        f"across {len(PASSES)} passes"
    )
    lines.append("verdict: " + ("OK" if report.ok else "VIOLATIONS"))
    return "\n".join(lines)


def to_json(report: LintReport) -> Dict[str, object]:
    """JSON rendering (the ``--format json`` schema, CI artifact)."""
    return {
        "version": 1,
        "root": report.root,
        "passes": list(PASSES),
        "codes": {code: desc for code, (_, desc) in sorted(CODES.items())},
        "counts": report.counts(),
        "ok": report.ok,
        "diagnostics": [diag.to_dict() for diag in report.diagnostics],
    }


#: Engine-owned explanations (codes with no pass module of their own).
EXPLANATIONS = {
    "RPL000": Explanation(
        code="RPL000",
        title="file does not parse",
        rationale=(
            "The engine analyses source ASTs without importing them; a "
            "file that does not parse cannot be analysed by any pass, "
            "which is itself a violation (and would crash at import "
            "time anyway)."
        ),
        example="def broken(:\n    pass",
        fix="Fix the syntax error; `python -m compileall src` shows it.",
    ),
}


def explain(code: str) -> Optional[Explanation]:
    """The :class:`Explanation` for one RPL code, if registered."""
    code = code.strip().upper()
    for source in (
        EXPLANATIONS,
        determinism.EXPLANATIONS,
        layering.EXPLANATIONS,
        contracts.EXPLANATIONS,
        physics.EXPLANATIONS,
        concurrency.EXPLANATIONS,
        asyncsafety.EXPLANATIONS,
    ):
        if code in source:
            return source[code]
    return None


def main(args) -> int:
    """Entry point for ``repro lint`` (argparse namespace in, exit code out)."""
    if getattr(args, "explain", None):
        code = args.explain.strip().upper()
        if not code.startswith("RPL"):
            code = f"RPL{code}"
        explanation = explain(code)
        if explanation is None:
            known = ", ".join(sorted(CODES))
            print(f"unknown code {code!r}; known codes: {known}")
            return 2
        print(explanation.render())
        return 0

    root = Path(args.root) if getattr(args, "root", None) else package_root()

    select: Optional[List[str]] = None
    if getattr(args, "select", None):
        select = [
            code
            for chunk in args.select
            for code in chunk.split(",")
            if code.strip()
        ]

    report = run_lint(root=root, select=select)
    if getattr(args, "format", "text") == "json":
        print(json.dumps(to_json(report), indent=2))
    else:
        print(render_text(report))
    return 0 if report.ok else 2
