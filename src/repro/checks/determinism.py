"""RPL1xx — the determinism pass.

Bit-for-bit reproducibility of a ``run_experiment`` fingerprint (the
experiment id and its kwargs, a ``seed`` among them) requires that every
stochastic choice flow from a *seeded RNG instance* passed as a
parameter, and that no result depend on the wall clock.  This pass
flags the ways code breaks that contract:

* ``RPL101`` — an RNG constructed with no seed (``random.Random()``,
  ``numpy.random.default_rng()``, a bit generator such as
  ``numpy.random.MT19937()``): its state comes from the OS.
* ``RPL102`` — a call through the *module-level* generator
  (``random.random()``, ``random.seed()``, ``numpy.random.*``): global
  state that any import can perturb, invisible to the seed plumbing.
* ``RPL103`` — a wall-clock read (``time.time``, ``perf_counter``,
  ``datetime.now``...) anywhere outside the allowlist.  The campaign
  supervisor and worker legitimately watch the clock (timeouts,
  heartbeats, elapsed-time bookkeeping), so those files are exempt.
* ``RPL504`` — in ``runner/`` and ``service/``, a wall-clock read
  inside a function that takes an explicit ``now`` (or ``deadline``)
  parameter, allowlisted file or not: mixing the two clocks breaks
  replays that drive time through the parameter.

``time.sleep`` is deliberately not flagged: pacing does not feed values
into results.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.checks.diagnostics import Diagnostic, Explanation, PyFile

#: Files (package-root-relative) allowed to read the wall clock.
DEFAULT_CLOCK_ALLOWLIST = frozenset({
    "runner/worker.py",
    # The scheduler/pool split of the runner: supervision *is* timing
    # (lease TTLs, heartbeat watchdogs, wall-clock budgets), but the
    # clock never enters result data (elapsed_s is excluded from
    # fingerprints) and the lease table itself is clock-free.
    "runner/scheduler.py",
    "runner/pool.py",
})

#: Layers that thread an explicit monotonic ``now`` (RPL504's scope).
EXPLICIT_CLOCK_PREFIXES = ("runner/", "service/")

#: Parameter names that mean "time is threaded explicitly here".
CLOCK_PARAMS = frozenset({"now", "deadline", "now_mono", "now_s"})

#: Methods of the module-level ``random`` generator whose use is global
#: state.  ``Random`` itself is handled separately (RPL101 when unseeded).
RNG_METHODS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "getstate", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})

#: ``numpy.random`` callables that build an RNG instance rather than
#: draw from the global one: RPL101 when called with no seed.
NUMPY_RNG_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "RandomState",
    "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
})

#: Wall-clock reads in the ``time`` module (``sleep`` excluded on purpose).
TIME_CLOCK_FUNCS = frozenset({
    "clock", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
    "time", "time_ns",
})

#: Wall-clock class methods of ``datetime.datetime`` / ``datetime.date``.
DATETIME_CLOCK_FUNCS = frozenset({"now", "today", "utcnow"})


class _Imports(ast.NodeVisitor):
    """Track which local names are the random/numpy/time/datetime modules."""

    def __init__(self) -> None:
        self.random_mods: Set[str] = set()
        self.numpy_mods: Set[str] = set()
        self.numpy_random_mods: Set[str] = set()
        self.time_mods: Set[str] = set()
        self.datetime_mods: Set[str] = set()
        self.datetime_classes: Set[str] = set()
        #: name -> function it aliases, from ``from <mod> import <fn>``.
        self.random_funcs: Dict[str, str] = {}
        self.time_funcs: Dict[str, str] = {}
        self.random_class_names: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_mods.add(bound)
            elif alias.name == "numpy":
                self.numpy_mods.add(bound)
            elif alias.name == "numpy.random":
                if alias.asname:
                    self.numpy_random_mods.add(alias.asname)
                else:
                    self.numpy_mods.add("numpy")
            elif alias.name == "time":
                self.time_mods.add(bound)
            elif alias.name == "datetime":
                self.datetime_mods.add(bound)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:  # relative imports never target stdlib modules
            return
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "random":
                if alias.name == "Random":
                    self.random_class_names.add(bound)
                elif alias.name in RNG_METHODS:
                    self.random_funcs[bound] = alias.name
            elif node.module == "numpy":
                if alias.name == "random":
                    self.numpy_random_mods.add(bound)
            elif node.module == "numpy.random":
                # any callable off numpy.random is global-state or a
                # constructor; track the name either way
                self.random_funcs[bound] = f"numpy.random.{alias.name}"
            elif node.module == "time":
                if alias.name in TIME_CLOCK_FUNCS:
                    self.time_funcs[bound] = alias.name
            elif node.module == "datetime":
                if alias.name in ("datetime", "date"):
                    self.datetime_classes.add(bound)


def _is_name(node: ast.AST, names: Set[str]) -> bool:
    return isinstance(node, ast.Name) and node.id in names


def _explicit_clock_calls(tree: ast.AST) -> Dict[int, str]:
    """``id(call) -> function name`` for every call inside a function
    that takes an explicit clock parameter."""
    out: Dict[int, str] = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            CLOCK_PARAMS & {a.arg for a in ast.walk(func.args)
                            if isinstance(a, ast.arg)}
        ):
            for node in ast.walk(func):
                out.setdefault(id(node), func.name)
    return out


def check_file(pf: PyFile) -> List[Diagnostic]:
    """Run the determinism pass over one file."""
    imports = _Imports()
    imports.visit(pf.tree)
    clock_ok = pf.rel in DEFAULT_CLOCK_ALLOWLIST
    explicit = (
        _explicit_clock_calls(pf.tree)
        if pf.rel.startswith(EXPLICIT_CLOCK_PREFIXES) else {}
    )
    out: List[Diagnostic] = []

    def clock_read(node: ast.Call, what: str) -> None:
        if not clock_ok:
            out.append(pf.diag(
                node, "RPL103",
                f"wall-clock read {what}() outside the allowlist; "
                f"results must not depend on the clock",
            ))
        if id(node) in explicit:
            out.append(pf.diag(
                node, "RPL504",
                f"{explicit[id(node)]} takes an explicit clock parameter "
                f"yet reads {what}(); thread the parameter instead",
            ))

    for node in ast.walk(pf.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func

        # random.Random(...) / Random(...) ------------------------------
        ctor: Optional[str] = None
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "Random"
            and _is_name(func.value, imports.random_mods)
        ):
            ctor = "random.Random"
        elif _is_name(func, imports.random_class_names):
            ctor = "random.Random"
        if ctor:
            if not node.args and not node.keywords:
                out.append(pf.diag(
                    node, "RPL101",
                    f"{ctor}() constructed without a seed; pass an explicit "
                    f"seed so runs are reproducible",
                ))
            continue

        # numpy.random.* --------------------------------------------------
        if isinstance(func, ast.Attribute):
            value = func.value
            is_np_random = (
                _is_name(value, imports.numpy_random_mods)
                or (
                    isinstance(value, ast.Attribute)
                    and value.attr == "random"
                    and _is_name(value.value, imports.numpy_mods)
                )
            )
            if is_np_random:
                if func.attr in NUMPY_RNG_CONSTRUCTORS:
                    if not node.args and not node.keywords:
                        out.append(pf.diag(
                            node, "RPL101",
                            f"numpy.random.{func.attr}() constructed without "
                            f"a seed",
                        ))
                else:
                    out.append(pf.diag(
                        node, "RPL102",
                        f"call to the global numpy.random.{func.attr} "
                        f"generator; use a seeded Generator instance",
                    ))
                continue

            # random.<fn>(...) on the module-level generator ------------
            if (
                func.attr in RNG_METHODS
                and _is_name(func.value, imports.random_mods)
            ):
                out.append(pf.diag(
                    node, "RPL102",
                    f"call to the global random.{func.attr} generator; "
                    f"RNG must flow from a seeded Random instance parameter",
                ))
                continue

            # wall clock ------------------------------------------------
            if (
                func.attr in TIME_CLOCK_FUNCS
                and _is_name(func.value, imports.time_mods)
            ):
                clock_read(node, f"time.{func.attr}")
                continue
            if func.attr in DATETIME_CLOCK_FUNCS:
                value = func.value
                from_class = _is_name(value, imports.datetime_classes)
                from_module = (
                    isinstance(value, ast.Attribute)
                    and value.attr in ("datetime", "date")
                    and _is_name(value.value, imports.datetime_mods)
                )
                if from_class or from_module:
                    clock_read(node, f"datetime {func.attr}")
                continue

        # from-imported names ------------------------------------------
        if isinstance(func, ast.Name):
            if func.id in imports.random_funcs:
                target = imports.random_funcs[func.id]
                if target.startswith("numpy.random."):
                    tail = target.split(".")[-1]
                    if tail in NUMPY_RNG_CONSTRUCTORS:
                        if not node.args and not node.keywords:
                            out.append(pf.diag(
                                node, "RPL101",
                                f"{target}() constructed without a seed",
                            ))
                    else:
                        out.append(pf.diag(
                            node, "RPL102",
                            f"call to the global {target} generator",
                        ))
                else:
                    out.append(pf.diag(
                        node, "RPL102",
                        f"call to the global random.{target} generator; "
                        f"RNG must flow from a seeded Random instance "
                        f"parameter",
                    ))
            elif func.id in imports.time_funcs:
                clock_read(node, imports.time_funcs[func.id])

    return out


def run(files: Iterable[PyFile]) -> List[Diagnostic]:
    """The determinism pass over a set of files."""
    return [d for pf in files for d in check_file(pf)]


EXPLANATIONS = {
    "RPL101": Explanation(
        code="RPL101",
        title="unseeded RNG construction",
        rationale=(
            "Every simulation result must be reproducible from its "
            "task fingerprint, which covers the experiment's kwargs, "
            "its seed among them. An RNG built "
            "without an explicit seed draws entropy from the OS and "
            "silently breaks bit-identical replay."
        ),
        example="rng = random.Random()\nrng = np.random.default_rng()",
        fix="rng = random.Random(seed)  # seed from an argument",
    ),
    "RPL102": Explanation(
        code="RPL102",
        title="module-level RNG call (global state)",
        rationale=(
            "Calls on the process-global RNG (random.random(), "
            "np.random.rand()) share hidden state across experiments; "
            "run order then changes results even when every task is "
            "seeded."
        ),
        example="jitter = random.random()",
        fix=(
            "rng = random.Random(seed)\n"
            "jitter = rng.random()   # per-task RNG object"
        ),
    ),
    "RPL103": Explanation(
        code="RPL103",
        title="wall-clock read outside the allowlist",
        rationale=(
            "Time enters the system only at its edges (the runner's "
            "worker, scheduler and pool); "
            "everything else takes an explicit monotonic "
            "`now`. A clock read elsewhere makes results depend on "
            "when they ran. RPL504 is the companion inside the "
            "allowlisted layers."
        ),
        example="started = time.monotonic()   # in core/experiments.py",
        fix=(
            "def run(..., now: float) -> ...:  # accept now explicitly\n"
            "# read the clock in an allowlisted edge module only"
        ),
    ),
    "RPL504": Explanation(
        code="RPL504",
        title="ambient clock read beside an explicit now",
        rationale=(
            "Runner and service code thread monotonic `now` values "
            "explicitly so that replays and tests can drive time. A "
            "function that takes `now` (or `deadline`) but also calls "
            "time.monotonic()/time.time() mixes two clocks: behaviour "
            "diverges between live runs and replays, and the RPL103 "
            "allowlist no longer describes where time enters."
        ),
        example=(
            "def renew(self, executor_id, now):\n"
            "    lease.expires_at = time.monotonic() + self.ttl_s"
        ),
        fix=(
            "def renew(self, executor_id, now):\n"
            "    lease.expires_at = now + self.ttl_s\n"
            "# read the clock once at the edge (an RPL103-allowlisted\n"
            "# module) and pass it down."
        ),
    ),
}
