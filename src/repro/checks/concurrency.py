"""RPL503/RPL601 — resource and event-loop hygiene, one function at a time.

Two shallow AST rules; each reads one function body (a nested ``def``
is a function of its own) and follows no control-flow paths:

* **RPL503** — a subprocess, socket or file handle created in runner
  code must be closed, used as a ``with`` context, or handed off
  (returned, stored, passed to a call) in the creating function; one
  stored on ``self`` must be closed by some method of the class.
* **RPL601** — no blocking call (``time.sleep``, ``subprocess.run``,
  file/socket I/O, ``fsync``...) inside an ``async def``, directly or
  through same-file helpers (``f()``, ``self.f()``), transitively.

A handle closed on one branch counts as closed, and a blocking call
after a ``return`` still counts: no real site has either shape.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.checks.diagnostics import Diagnostic, Explanation, PyFile

#: Files the resource rule applies to.
RUNNER_PREFIX = "runner/"

#: Calls whose result carries a close obligation (canonical names).
RESOURCE_CREATORS = frozenset({
    "subprocess.Popen", "socket.socket", "socket.create_connection",
    "os.fdopen", "os.open", "open", "io.open",
})

#: Method names that discharge a close obligation.
RESOURCE_DISCHARGE = frozenset({
    "close", "kill", "terminate", "cleanup", "shutdown", "stop",
    "kill_all", "release", "detach",
})

#: Calls that block the calling thread (canonical names).
BLOCKING_CALLS = RESOURCE_CREATORS - {"socket.socket"} | frozenset({
    "time.sleep", "subprocess.run", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    "socket.getaddrinfo", "os.fsync", "os.system", "os.wait",
    "os.waitpid", "select.select", "shutil.rmtree", "shutil.copytree",
    "requests.get", "requests.post", "urllib.request.urlopen",
})

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: A ``def`` and its enclosing class (None outside a class).
_Def = Tuple[ast.AST, Optional[ast.ClassDef]]


def dotted_name(expr: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name):
        return None
    parts.append(expr.id)
    return ".".join(reversed(parts))


def _aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name -> imported dotted name (``import x as y``,
    ``from x import f``)."""
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((a.asname, a.name) for a in node.names if a.asname)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.update(
                (a.asname or a.name, f"{node.module}.{a.name}")
                for a in node.names
            )
    return out


def _target(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted target of a call, e.g. ``time.sleep``."""
    name = dotted_name(call.func)
    if name is None:
        return None
    root, dot, rest = name.partition(".")
    return aliases.get(root, root) + dot + rest


def walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without entering nested defs or classes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, (*_FUNCS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(child))


def _functions(tree: ast.AST) -> List[_Def]:
    """Every ``def`` in the module, outer before inner."""
    out: List[_Def] = []

    def visit(node: ast.AST, cls: Optional[ast.ClassDef]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
                continue
            if isinstance(child, _FUNCS):
                out.append((child, cls))
            visit(child, cls)

    visit(tree, None)
    return out


def _mentions(tree: Optional[ast.AST], var: str) -> bool:
    return any(isinstance(n, ast.Name) and n.id == var
               for n in ast.walk(tree or ast.Pass()))


def _closes(tree: ast.AST, chain: str) -> bool:
    """A ``<chain>[.x].<discharge>(...)`` call anywhere in *tree*."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in RESOURCE_DISCHARGE
        ):
            recv = dotted_name(node.func.value) or ""
            if recv == chain or recv.startswith(chain + "."):
                return True
    return False


def _handed_off(func: ast.AST, var: str) -> bool:
    """Is local *var* closed, a ``with`` context, returned, stored or
    passed to a call anywhere in *func*?"""
    if _closes(func, var):
        return True
    for node in walk_shallow(func):
        if isinstance(node, ast.Call):
            values = [*node.args, *(kw.value for kw in node.keywords)]
        elif isinstance(
            node, (ast.Return, ast.Yield, ast.YieldFrom, ast.Assign)
        ):
            values = [node.value]
        elif isinstance(node, ast.withitem):
            values = [node.context_expr]
        else:
            continue
        if any(_mentions(value, var) for value in values):
            return True
    return False


# -- RPL503: resource close discipline ---------------------------------------


def _check_resources(
    pf: PyFile, func: ast.AST, cls: Optional[ast.ClassDef],
    aliases: Dict[str, str],
) -> List[Diagnostic]:
    qual = f"{cls.name}.{func.name}" if cls else func.name
    out: List[Diagnostic] = []
    for node in walk_shallow(func):
        if not isinstance(node, (ast.Assign, ast.Expr)) or not isinstance(
            node.value, ast.Call
        ):
            continue
        target = _target(node.value, aliases)
        if target not in RESOURCE_CREATORS:
            continue
        if isinstance(node, ast.Expr):
            out.append(pf.diag(
                node, "RPL503",
                f"{qual} discards the {target} handle it creates; "
                f"nothing can ever close it",
            ))
            continue
        bound = node.targets[0]
        chain = dotted_name(bound) or ""
        if isinstance(bound, ast.Name) and not _handed_off(func, chain):
            out.append(pf.diag(
                node, "RPL503",
                f"{qual} opens {target} as {chain!r} but never closes "
                f"or hands it off",
            ))
        elif chain.startswith("self.") and (
            cls is None or not _closes(cls, chain)
        ):
            out.append(pf.diag(
                node, "RPL503",
                f"{qual} stores a {target} handle on {chain} but no "
                f"method of the class ever closes it",
            ))
    return out


# -- RPL601: blocking calls in async defs ------------------------------------


def _check_blocking(
    pf: PyFile, functions: List[_Def], aliases: Dict[str, str]
) -> List[Diagnostic]:
    by_name: Dict[Tuple[str, str], _Def] = {}
    for func, cls in functions:  # an outer def wins over a nested one
        by_name.setdefault((cls.name if cls else "", func.name), (func, cls))
    memo: Dict[int, Optional[str]] = {}

    def resolve(call: ast.Call, cls: Optional[ast.ClassDef]):
        """The same-file ``f()`` or ``self.f()`` a call names, if any."""
        name = dotted_name(call.func) or ""
        if "." not in name:
            return by_name.get(("", name))
        owner, _, method = name.partition(".")
        return by_name.get((cls.name, method)) if (
            owner == "self" and cls is not None
        ) else None

    def blocks(func: ast.AST, cls: Optional[ast.ClassDef]) -> Optional[str]:
        """The blocking primitive *func* reaches, as a call chain."""
        if id(func) not in memo:
            memo[id(func)] = None  # a call cycle ends here
            memo[id(func)] = next(
                (why for _call, why in calls(func, cls)), None
            )
        return memo[id(func)]

    def calls(func: ast.AST, cls: Optional[ast.ClassDef]):
        for sub in walk_shallow(func):
            if not isinstance(sub, ast.Call):
                continue
            target = _target(sub, aliases)
            if target in BLOCKING_CALLS:
                yield sub, target
                continue
            callee = resolve(sub, cls)
            chain = blocks(*callee) if callee is not None else None
            if chain is not None:
                yield sub, f"{callee[0].name} -> {chain}"

    out: List[Diagnostic] = []
    for func, cls in functions:
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        qual = f"{cls.name}.{func.name}" if cls else func.name
        for call, chain in calls(func, cls):
            out.append(pf.diag(
                call, "RPL601",
                f"{qual} is async but blocks ({chain}); "
                f"use the asyncio equivalent or run_in_executor",
            ))
    return out


# -- pass entry point --------------------------------------------------------


def run(files: List[PyFile]) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for pf in files:
        if pf.parse_error:
            continue
        aliases = _aliases(pf.tree)
        functions = _functions(pf.tree)
        if pf.rel.startswith(RUNNER_PREFIX):
            for func, cls in functions:
                out.extend(_check_resources(pf, func, cls, aliases))
        out.extend(_check_blocking(pf, functions, aliases))
    return out


EXPLANATIONS = {
    "RPL503": Explanation(
        code="RPL503",
        title="resource handle neither closed nor handed off",
        rationale=(
            "Sockets, subprocesses and file handles opened by the "
            "runner outlive the campaign if nothing closes them: "
            "leaked workers keep scratch directories pinned and leaked "
            "handles exhaust fds during chaos soaks. Each handle must "
            "be closed, used as a `with` context or handed to an owner "
            "in the function that creates it; a handle stored on self "
            "must be closed by some method of the class."
        ),
        example="proc = subprocess.Popen(cmd)   # never closed or returned",
        fix=(
            "with subprocess.Popen(cmd) as proc:\n"
            "    wait_ready()\n"
            "# or close it, or hand it to an owner that closes it"
        ),
    ),
    "RPL601": Explanation(
        code="RPL601",
        title="blocking call inside async def",
        rationale=(
            "The service runs every handler and dispatcher coroutine "
            "on one event loop; a single time.sleep, subprocess.run "
            "or synchronous file/socket call freezes every in-flight "
            "request for its full duration."
        ),
        example=(
            "async def _process(self, fp):\n"
            "    time.sleep(0.2)            # stalls the event loop\n"
            "    data = helper()            # helper calls fsync"
        ),
        fix=(
            "async def _process(self, fp):\n"
            "    await asyncio.sleep(0.2)\n"
            "    data = await loop.run_in_executor(pool, helper)"
        ),
    ),
}
