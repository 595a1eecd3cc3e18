"""Diagnostic records and the RPL code registry.

Every pass emits :class:`Diagnostic` values.  A diagnostic's *context*
is the stripped source line it points at (or a synthetic tag such as
``cycle:a|b`` for findings with no single line).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Registry of every diagnostic code: code -> (pass name, summary).
CODES: Dict[str, tuple] = {
    "RPL000": ("engine", "file does not parse"),
    # -- determinism ------------------------------------------------------
    "RPL101": ("determinism", "unseeded RNG construction"),
    "RPL102": ("determinism", "module-level RNG call (global state)"),
    "RPL103": ("determinism", "wall-clock read outside the allowlist"),
    "RPL504": ("determinism", "ambient clock read beside an explicit now"),
    # -- layering ---------------------------------------------------------
    "RPL201": ("layering", "upward import (lower layer imports higher)"),
    "RPL202": ("layering", "cross-layer import between same-layer packages"),
    "RPL203": ("layering", "package import cycle"),
    "RPL204": ("layering", "import of a package with no assigned layer"),
    # -- experiment contracts --------------------------------------------
    "RPL301": ("contracts", "experiment run callable has no docstring"),
    "RPL302": ("contracts", "docstring does not name the paper artifact"),
    "RPL303": ("contracts", "run callable does not accept **kwargs"),
    "RPL304": ("contracts", "experiment id referenced by no test"),
    "RPL305": ("contracts", "trace kernel not in the Table 1 workload set"),
    "RPL306": ("contracts", "Table 1 workload missing from the registry"),
    # -- physics hygiene --------------------------------------------------
    "RPL401": ("physics", "Material constructed from a bare literal"),
    "RPL402": ("physics", "bare physics literal at a call site"),
    "RPL403": ("physics", "bare physics literal as a parameter default"),
    # -- resource and event-loop hygiene ---------------------------------
    "RPL503": ("concurrency", "resource handle neither closed nor handed off"),
    "RPL601": ("concurrency", "blocking call inside async def"),
}


@dataclass(frozen=True)
class Explanation:
    """The ``repro lint --explain RPL###`` payload for one rule.

    Each pass module keeps an ``EXPLANATIONS`` dict next to its
    implementation so the rationale lives with the code it documents;
    the engine aggregates them.
    """

    code: str
    title: str
    rationale: str
    example: str
    fix: str

    def render(self) -> str:
        def indent(text: str) -> str:
            return "\n".join(f"    {line}" for line in text.splitlines())

        return "\n".join([
            f"{self.code} — {self.title}",
            "",
            "why:",
            indent(self.rationale),
            "",
            "example violation:",
            indent(self.example),
            "",
            "fix pattern:",
            indent(self.fix),
        ])


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding of one pass.

    Attributes:
        path: File path relative to the scanned package root (posix).
        line: 1-based line number.
        col: 0-based column.
        code: ``RPLxxx`` code (see :data:`CODES`).
        message: Human-readable description of this instance.
        context: The stripped source line the finding points at.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    context: str = field(default="", compare=False)

    @property
    def pass_name(self) -> str:
        return CODES.get(self.code, ("unknown", ""))[0]

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "pass": self.pass_name,
            "message": self.message,
            "context": self.context,
        }


@dataclass(frozen=True)
class PyFile:
    """A parsed source file handed to the passes.

    Attributes:
        rel: Path relative to the package root, posix separators
            (e.g. ``"thermal/solver.py"``).
        module: Dotted module name (e.g. ``"repro.thermal.solver"``).
        tree: Parsed AST (empty module if the file did not parse).
        lines: Source split into lines (for diagnostic context).
        parse_error: Non-empty if the file failed to parse (RPL000).
    """

    rel: str
    module: str
    tree: ast.Module
    lines: List[str] = field(compare=False)
    parse_error: str = ""

    def context(self, line: int) -> str:
        """The stripped source line at a 1-based line number."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def diag(self, node: ast.AST, code: str, message: str) -> Diagnostic:
        """Build a diagnostic anchored at an AST node."""
        line = getattr(node, "lineno", 1)
        return Diagnostic(
            path=self.rel,
            line=line,
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
            context=self.context(line),
        )
