"""Statement-level control-flow graphs over Python ASTs.

The builder lowers one function body (or any statement list) into a
:class:`CFG` of statement nodes joined by labelled edges.  It models:

* branches (``if``/``elif``/``else``, ``match``),
* loops (``for``/``while``, ``break``/``continue``, ``else`` clauses),
* ``try``/``except``/``else``/``finally`` including exception edges
  and abrupt-completion routing (``return``/``raise``/``break``/
  ``continue`` unwinding through pending ``finally`` blocks),
* ``with``/``async with``, ``async for``, and ``await`` (awaits are
  ordinary expressions; :meth:`CFGNode.has_await` exposes them).

Exception modelling is deliberately coarse, tuned for the RPL5xx/6xx
passes rather than for soundness proofs:

* Inside a ``try`` body every statement gets an exception edge to each
  of the try's handlers (and to its ``finally`` head, standing in for
  "no handler matched").  Outside any ``try`` only an explicit
  ``raise`` produces an exception edge (to function exit).
* Exception edges carry the *pre*-state of the raising statement in
  the dataflow framework (the statement's effect is assumed not to
  have happened), which keeps ``x = os.open(...)`` inside a ``try``
  from leaking a phantom obligation into the handler.
* A ``finally`` block is lowered once; its exits fan out to every
  continuation that actually entered it (normal fall-through, return,
  exception propagation, break/continue), which over-approximates
  paths but never loses one.

These choices are documented as false-negative boundaries in DESIGN.md.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Edge kinds.
NORMAL = "next"       #: ordinary fall-through
TRUE = "true"         #: branch taken
FALSE = "false"       #: branch not taken (incl. loop exhaustion)
EXC = "exc"           #: exception raised by the source statement
BACK = "back"         #: loop back-edge
ABRUPT = "abrupt"     #: return/break/continue routed into a finally
RETURN = "return"     #: edge into exit from a return (or finally after one)

_TRY_TYPES: Tuple[type, ...] = (ast.Try,)
if hasattr(ast, "TryStar"):  # 3.11+
    _TRY_TYPES = (ast.Try, ast.TryStar)

_DEF_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Hard cap on nodes per function — a runaway guard, far above any
#: real function in this repository.
MAX_NODES = 20_000

Edge = Tuple[int, str]


@dataclass
class CFGNode:
    """One statement (or synthetic entry/exit/region head) in a CFG."""

    nid: int
    kind: str  # entry | exit | stmt | test | with | except | finally
    stmt: Optional[ast.AST] = None
    succs: List[Edge] = field(default_factory=list)

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)

    @property
    def label(self) -> str:
        """Stable label for golden tests: ``<AstType>@<line>``."""
        if self.kind in ("entry", "exit"):
            return self.kind
        if self.kind in ("except", "finally"):
            return f"{self.kind}@{self.line}"
        name = type(self.stmt).__name__ if self.stmt is not None else "?"
        return f"{name}@{self.line}"

    def ast_parts(self) -> List[ast.AST]:
        """The AST owned by *this* node only.

        Compound statements own just their header (test, iterable,
        context managers): the body belongs to other nodes.  Nested
        function/class definitions are opaque — their bodies run at
        call time, not here.
        """
        s = self.stmt
        if s is None:
            return []
        if isinstance(s, _DEF_TYPES):
            return []
        if isinstance(s, (ast.If, ast.While)):
            return [s.test]
        if isinstance(s, (ast.For, ast.AsyncFor)):
            return [s.target, s.iter]
        if isinstance(s, (ast.With, ast.AsyncWith)):
            parts: List[ast.AST] = []
            for item in s.items:
                parts.append(item.context_expr)
                if item.optional_vars is not None:
                    parts.append(item.optional_vars)
            return parts
        if isinstance(s, _TRY_TYPES):
            return []
        if isinstance(s, ast.ExceptHandler):
            return [s.type] if s.type is not None else []
        if hasattr(ast, "Match") and isinstance(s, ast.Match):
            return [s.subject]
        return [s]

    def walk(self) -> Iterator[ast.AST]:
        """Walk only the AST owned by this node (no nested blocks)."""
        for part in self.ast_parts():
            yield from ast.walk(part)

    def has_await(self) -> bool:
        return any(isinstance(x, ast.Await) for x in self.walk())


@dataclass
class CFG:
    """A built control-flow graph with single entry/exit."""

    name: str
    func: Optional[ast.AST]
    nodes: Dict[int, CFGNode]
    entry: int
    exit: int

    def predecessors_map(self) -> Dict[int, List[Edge]]:
        """``nid -> [(pred_nid, edge_kind), ...]`` for the whole graph."""
        preds: Dict[int, List[Edge]] = {nid: [] for nid in self.nodes}
        for node in self.nodes.values():
            for dst, kind in node.succs:
                preds[dst].append((node.nid, kind))
        return preds

    def reachable(self, frm: Optional[int] = None) -> Set[int]:
        """Node ids reachable from ``frm`` (default: entry)."""
        start = self.entry if frm is None else frm
        seen = {start}
        stack = [start]
        while stack:
            nid = stack.pop()
            for dst, _kind in self.nodes[nid].succs:
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen

    def stmt_nodes(self) -> List[CFGNode]:
        """Non-synthetic nodes, in creation (roughly source) order."""
        return [
            self.nodes[nid]
            for nid in sorted(self.nodes)
            if self.nodes[nid].stmt is not None
        ]

    def edge_list(self) -> List[Tuple[str, str, str]]:
        """Sorted ``(src_label, kind, dst_label)`` triples for goldens."""
        out = set()
        for node in self.nodes.values():
            for dst, kind in node.succs:
                out.add((node.label, kind, self.nodes[dst].label))
        return sorted(out)


@dataclass
class _FinallyFrame:
    first: int
    ends: List[Edge]
    entered: Set[str] = field(default_factory=set)


@dataclass
class _LoopFrame:
    head: int
    breaks: List[Edge] = field(default_factory=list)
    fin_depth: int = 0


#: An exception-edge target: the receiving node plus the finally frame
#: it belongs to (None for except-handler targets).
_ExcTarget = Tuple[int, Optional[_FinallyFrame]]


class _Builder:
    def __init__(self, name: str, func: Optional[ast.AST]) -> None:
        self.name = name
        self.func = func
        self.nodes: Dict[int, CFGNode] = {}
        self._next = 0
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        self.exc_stack: List[List[_ExcTarget]] = []
        self.fin_stack: List[_FinallyFrame] = []
        self.loop_stack: List[_LoopFrame] = []

    # -- graph primitives ----------------------------------------------------

    def _new(self, kind: str, stmt: Optional[ast.AST] = None) -> int:
        if self._next >= MAX_NODES:
            raise ValueError(
                f"CFG for {self.name!r} exceeds {MAX_NODES} nodes"
            )
        nid = self._next
        self._next += 1
        self.nodes[nid] = CFGNode(nid=nid, kind=kind, stmt=stmt)
        return nid

    def _edge(self, src: int, dst: int, kind: str = NORMAL) -> None:
        edge = (dst, kind)
        if edge not in self.nodes[src].succs:
            self.nodes[src].succs.append(edge)

    def _connect(self, incoming: Sequence[Edge], nid: int) -> None:
        for src, kind in incoming:
            self._edge(src, nid, kind)

    def _exc_edges(self, nid: int) -> None:
        """Implicit may-raise edges for a statement inside a try."""
        if self.exc_stack:
            for target, frame in self.exc_stack[-1]:
                self._edge(nid, target, EXC)
                if frame is not None:
                    frame.entered.add("exc")

    # -- abrupt completion ---------------------------------------------------

    def _route_return(self, nid: int) -> None:
        if self.fin_stack:
            for frame in self.fin_stack:
                frame.entered.add("return")
            self._edge(nid, self.fin_stack[-1].first, ABRUPT)
        else:
            self._edge(nid, self.exit, RETURN)

    def _route_raise(self, nid: int) -> None:
        if self.exc_stack:
            self._exc_edges(nid)
        else:
            self._edge(nid, self.exit, EXC)

    def _route_break(self, nid: int) -> None:
        loop = self.loop_stack[-1] if self.loop_stack else None
        fin_depth = loop.fin_depth if loop else 0
        pending = self.fin_stack[fin_depth:]
        if pending:
            for frame in pending:
                frame.entered.add("break")
            self._edge(nid, pending[-1].first, ABRUPT)
        elif loop is not None:
            loop.breaks.append((nid, NORMAL))
        else:  # break outside a loop: syntactically invalid; be safe
            self._edge(nid, self.exit, NORMAL)

    def _route_continue(self, nid: int) -> None:
        loop = self.loop_stack[-1] if self.loop_stack else None
        fin_depth = loop.fin_depth if loop else 0
        pending = self.fin_stack[fin_depth:]
        if pending:
            for frame in pending:
                frame.entered.add("continue")
            self._edge(nid, pending[-1].first, ABRUPT)
        elif loop is not None:
            self._edge(nid, loop.head, BACK)
        else:
            self._edge(nid, self.exit, NORMAL)

    # -- lowering ------------------------------------------------------------

    def build(self, body: Sequence[ast.stmt]) -> CFG:
        dangling = self._block(body, [(self.entry, NORMAL)])
        self._connect(dangling, self.exit)
        return CFG(
            name=self.name,
            func=self.func,
            nodes=self.nodes,
            entry=self.entry,
            exit=self.exit,
        )

    def _block(
        self, stmts: Sequence[ast.stmt], incoming: List[Edge]
    ) -> List[Edge]:
        for stmt in stmts:
            incoming = self._stmt(stmt, incoming)
        return incoming

    def _stmt(self, stmt: ast.stmt, incoming: List[Edge]) -> List[Edge]:
        if isinstance(stmt, ast.If):
            return self._lower_if(stmt, incoming)
        if isinstance(stmt, ast.While):
            return self._lower_loop(stmt, stmt.body, stmt.orelse, incoming)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._lower_loop(stmt, stmt.body, stmt.orelse, incoming)
        if isinstance(stmt, _TRY_TYPES):
            return self._lower_try(stmt, incoming)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._lower_with(stmt, incoming)
        if hasattr(ast, "Match") and isinstance(stmt, ast.Match):
            return self._lower_match(stmt, incoming)
        if isinstance(stmt, ast.Return):
            nid = self._new("stmt", stmt)
            self._connect(incoming, nid)
            self._exc_edges(nid)
            self._route_return(nid)
            return []
        if isinstance(stmt, ast.Raise):
            nid = self._new("stmt", stmt)
            self._connect(incoming, nid)
            self._route_raise(nid)
            return []
        if isinstance(stmt, ast.Break):
            nid = self._new("stmt", stmt)
            self._connect(incoming, nid)
            self._route_break(nid)
            return []
        if isinstance(stmt, ast.Continue):
            nid = self._new("stmt", stmt)
            self._connect(incoming, nid)
            self._route_continue(nid)
            return []
        # Simple statement (incl. nested def/class, treated opaquely).
        nid = self._new("stmt", stmt)
        self._connect(incoming, nid)
        if not isinstance(stmt, _DEF_TYPES):
            self._exc_edges(nid)
        return [(nid, NORMAL)]

    def _lower_if(self, stmt: ast.If, incoming: List[Edge]) -> List[Edge]:
        test = self._new("test", stmt)
        self._connect(incoming, test)
        self._exc_edges(test)
        out = self._block(stmt.body, [(test, TRUE)])
        if stmt.orelse:
            out = out + self._block(stmt.orelse, [(test, FALSE)])
        else:
            out = out + [(test, FALSE)]
        return out

    def _lower_loop(
        self,
        stmt: ast.stmt,
        body: Sequence[ast.stmt],
        orelse: Sequence[ast.stmt],
        incoming: List[Edge],
    ) -> List[Edge]:
        head = self._new("test", stmt)
        self._connect(incoming, head)
        self._exc_edges(head)
        frame = _LoopFrame(head=head, fin_depth=len(self.fin_stack))
        self.loop_stack.append(frame)
        body_ends = self._block(body, [(head, TRUE)])
        for src, _kind in body_ends:
            self._edge(src, head, BACK)
        self.loop_stack.pop()
        out: List[Edge] = [(head, FALSE)]
        if orelse:
            out = self._block(orelse, out)
        return out + frame.breaks

    def _lower_with(
        self, stmt: ast.stmt, incoming: List[Edge]
    ) -> List[Edge]:
        nid = self._new("with", stmt)
        self._connect(incoming, nid)
        self._exc_edges(nid)
        return self._block(stmt.body, [(nid, NORMAL)])

    def _lower_match(
        self, stmt: "ast.Match", incoming: List[Edge]
    ) -> List[Edge]:
        subj = self._new("test", stmt)
        self._connect(incoming, subj)
        self._exc_edges(subj)
        out: List[Edge] = [(subj, FALSE)]
        for case in stmt.cases:
            out = out + self._block(case.body, [(subj, TRUE)])
        return out

    def _lower_try(self, stmt: ast.stmt, incoming: List[Edge]) -> List[Edge]:
        handlers = list(stmt.handlers)
        handler_nodes = [self._new("except", h) for h in handlers]

        fin_frame: Optional[_FinallyFrame] = None
        if stmt.finalbody:
            # The finally body is lowered *first* (exceptions inside it
            # propagate to the enclosing context, which is still the
            # outer one here) so that its head exists before the try
            # body needs it as an unwind target.
            fin_head = self._new("finally", stmt.finalbody[0])
            fin_ends = self._block(stmt.finalbody, [(fin_head, NORMAL)])
            fin_frame = _FinallyFrame(first=fin_head, ends=fin_ends)

        targets: List[_ExcTarget] = [(h, None) for h in handler_nodes]
        if fin_frame is not None:
            targets.append((fin_frame.first, fin_frame))

        if fin_frame is not None:
            self.fin_stack.append(fin_frame)
        self.exc_stack.append(targets)
        body_ends = self._block(stmt.body, incoming)
        if stmt.orelse:
            # Over-approximation: the else block is lowered with the
            # same exception context as the body (its exceptions are
            # really only caught by outer handlers / this finally).
            body_ends = self._block(stmt.orelse, body_ends)
        self.exc_stack.pop()

        # Handler bodies: exceptions there skip this try's handlers but
        # still traverse its finally.
        if fin_frame is not None:
            self.exc_stack.append([(fin_frame.first, fin_frame)])
        handler_ends: List[Edge] = []
        for hnode, handler in zip(handler_nodes, handlers):
            handler_ends += self._block(handler.body, [(hnode, NORMAL)])
        if fin_frame is not None:
            self.exc_stack.pop()

        normal_ends = body_ends + handler_ends
        if fin_frame is None:
            return normal_ends

        self.fin_stack.pop()
        self._connect(normal_ends, fin_frame.first)
        out = list(fin_frame.ends)
        if "return" in fin_frame.entered:
            for src, _kind in fin_frame.ends:
                if self.fin_stack:
                    self.fin_stack[-1].entered.add("return")
                    self._edge(src, self.fin_stack[-1].first, ABRUPT)
                else:
                    self._edge(src, self.exit, RETURN)
        if "exc" in fin_frame.entered:
            # ABRUPT, not EXC: these edges model an in-flight exception
            # *continuing* to unwind after the finally body ran to
            # completion, so they carry the body's post-state (a close
            # in the finally has already happened on this path).
            for src, _kind in fin_frame.ends:
                if self.exc_stack:
                    for target, frame in self.exc_stack[-1]:
                        self._edge(src, target, ABRUPT)
                        if frame is not None:
                            frame.entered.add("exc")
                else:
                    self._edge(src, self.exit, ABRUPT)
        if "break" in fin_frame.entered and self.loop_stack:
            self.loop_stack[-1].breaks.extend(fin_frame.ends)
        if "continue" in fin_frame.entered and self.loop_stack:
            for src, _kind in fin_frame.ends:
                self._edge(src, self.loop_stack[-1].head, BACK)
        return out


def build_cfg(
    func: ast.AST, name: Optional[str] = None
) -> CFG:
    """Build a CFG for one function definition (or module body)."""
    label = name or getattr(func, "name", "<module>")
    body = getattr(func, "body", None)
    if body is None:
        raise TypeError(f"cannot build a CFG for {type(func).__name__}")
    return _Builder(label, func).build(body)


@dataclass
class FunctionCFG:
    """A function definition paired with its CFG and lexical context."""

    qualname: str
    cls: Optional[ast.ClassDef]
    func: ast.AST  # FunctionDef | AsyncFunctionDef

    @property
    def is_async(self) -> bool:
        return isinstance(self.func, ast.AsyncFunctionDef)

    @property
    def cfg(self) -> CFG:
        if not hasattr(self, "_cfg"):
            self._cfg = build_cfg(self.func, name=self.qualname)
        return self._cfg

    def param_names(self) -> List[str]:
        a = self.func.args
        params = list(a.posonlyargs) + list(a.args) + list(a.kwonlyargs)
        if a.vararg:
            params.append(a.vararg)
        if a.kwarg:
            params.append(a.kwarg)
        return [p.arg for p in params]


def function_cfgs(tree: ast.AST) -> List[FunctionCFG]:
    """All function definitions in a module, with qualnames and class."""
    out: List[FunctionCFG] = []

    def visit(
        node: ast.AST, prefix: str, cls: Optional[ast.ClassDef]
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                out.append(FunctionCFG(qualname=qual, cls=cls, func=child))
                visit(child, f"{qual}.", cls)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child)

    visit(tree, "", None)
    return out
