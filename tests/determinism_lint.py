"""The determinism contract as AST rules, run over this repository's sources.

The reproduction's claims rest on byte-identical replays: every random draw
flows through :func:`repro.sim.rng.derive_rng`, simulation state never reads
wall clocks, filesystem scans are sorted, and expected failures surface as
:class:`repro.errors.ReproError` subclasses.  Each rule below encodes one
clause of that contract (see ARCHITECTURE.md, "The determinism contract");
its docstring says what it flags, why, and what compliant code looks like.

Rules are *syntactic*: they resolve names through the file's import aliases
(``import numpy as np`` makes ``np.random.seed`` recognisable) but do no
cross-module type inference.  Deliberate exemptions are whole files, listed
in :data:`ALLOW`.  ``tests/test_lint.py`` runs :func:`lint` over ``src/`` as
a tier-1 gate; this module is a helper, not a test file.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union


class Finding(NamedTuple):
    """One rule hit inside a file."""

    line: int
    column: int
    message: str


class FileContext:
    """One parsed source file plus the name-resolution tables rules need.

    A file that does not parse raises :class:`SyntaxError` here, which fails
    the gate.
    """

    def __init__(self, rel_path: str, source: str):
        self.tree = ast.parse(source, filename=rel_path)
        #: local alias -> canonical module path ("np" -> "numpy")
        self.module_aliases: dict[str, str] = {}
        #: local name -> canonical dotted origin ("Random" -> "random.Random")
        self.from_imports: dict[str, str] = {}
        #: canonical top-level modules this file really imports; rules keyed
        #: on a module (random, numpy, time, os) fire only when its root is
        #: here, so a local variable that happens to be named `random` in a
        #: file that never imports it cannot false-positive
        self.imported_roots: set[str] = set()
        self._collect_imports()
        #: child node id -> parent node (for wrapped-in-sorted checks)
        self.parents: dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for node in ast.iter_child_nodes(parent):
                self.parents[id(node)] = parent

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname is None and "." in alias.name:
                        # `import numpy.random` binds the top-level package
                        self.module_aliases[alias.name.split(".")[0]] = (
                            alias.name.split(".")[0]
                        )
                    self.imported_roots.add(alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
                self.imported_roots.add(node.module.split(".")[0])

    def imports_module(self, root: str) -> bool:
        """True iff the file imports ``root`` (directly or via ``from``)."""
        return root in self.imported_roots

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, or None.

        ``np.random.seed`` resolves to ``numpy.random.seed`` when the file
        imported ``numpy as np``; ``perf_counter`` resolves to
        ``time.perf_counter`` after ``from time import perf_counter``.
        Bare builtins resolve to themselves.
        """
        if isinstance(node, ast.Name):
            if node.id in self.from_imports:
                return self.from_imports[node.id]
            if node.id in self.module_aliases:
                return self.module_aliases[node.id]
            return node.id
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(id(node))


def _calls(context: FileContext) -> Iterator[tuple[ast.Call, Optional[str]]]:
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Call):
            yield node, context.resolve(node.func)


#: legacy NumPy global-RNG entry points (mutate or read np.random's hidden
#: global MT19937 state) plus the legacy RandomState constructor
_NUMPY_LEGACY = {
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "get_state", "set_state", "RandomState",
}

#: wall-clock entry points that must not feed simulation state
_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: filesystem enumerators whose order is filesystem-dependent
_FS_SCAN_METHODS = {"glob", "rglob", "iterdir"}
_FS_SCAN_FUNCTIONS = {"os.listdir", "os.scandir"}

#: builtin exception types the library must not raise bare (TypeError is
#: deliberately exempt: constructor-signature errors mirror dataclasses)
_BARE_EXCEPTIONS = {"Exception", "ValueError", "RuntimeError"}


def det001(context: FileContext) -> Iterator[Finding]:
    """Stdlib ``random`` used directly instead of ``sim.rng.derive_rng``.

    Why: every random draw must flow through ``repro.sim.rng.derive_rng`` so
    a (seed, labels) pair names the stream and replays identically
    regardless of call order, process boundaries, or which other streams
    exist.  A raw ``random.Random()``, ``random.seed()``, or module-global
    ``random.*()`` call creates an unnamed stream whose state leaks across
    call sites, silently forking trajectories between otherwise identical
    runs.

    Fix: ``rng = derive_rng(seed, "my-subsystem", index)`` and draw from
    that rng; only ``src/repro/sim/rng.py`` (the allowlisted stream factory)
    may construct ``random.Random`` itself.
    """
    if not context.imports_module("random"):
        return
    for node, name in _calls(context):
        if name is None or name == "random" or not name.startswith("random."):
            continue
        attr = name.split(".", 1)[1]
        if attr.startswith("_"):
            continue
        yield Finding(
            node.lineno,
            node.col_offset,
            f"call to random.{attr}() bypasses sim.rng.derive_rng "
            f"(streams must be named and derived, not constructed)",
        )


def det002(context: FileContext) -> Iterator[Finding]:
    """Legacy NumPy global RNG (``np.random.seed`` / ``np.random.rand*``).

    Why: ``numpy.random``'s module-level functions share one hidden global
    MT19937 state: any import that seeds or draws from it perturbs every
    other user in the process, and parallel sweep workers inherit whatever
    state the parent left behind.  There is no allowlist: no module may use
    it.

    Fix: use a ``numpy.random.Generator`` seeded from the derived stream,
    ``np.random.default_rng(derive_seed(seed, "label"))``, or draw via the
    ``random.Random`` returned by ``derive_rng``.
    """
    if not context.imports_module("numpy"):
        return
    seen: set[tuple[int, int]] = set()
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        name = context.resolve(node)
        if name is None or not name.startswith("numpy.random."):
            continue
        attr = name.split("numpy.random.", 1)[1].split(".")[0]
        if attr not in _NUMPY_LEGACY:
            continue
        key = (node.lineno, node.col_offset)
        if key in seen:
            continue
        seen.add(key)
        yield Finding(
            node.lineno,
            node.col_offset,
            f"numpy.random.{attr} touches the legacy global RNG state; "
            f"use np.random.default_rng(derive_seed(...)) instead",
        )


def det003(context: FileContext) -> Iterator[Finding]:
    """Wall-clock read outside the provenance/profiling allowlist.

    Why: simulation state must advance only on the EventScheduler's virtual
    clock; a wall-clock read (``time.time``, ``perf_counter``,
    ``datetime.now``, ...) that feeds simulation state or artifacts makes
    outputs depend on host speed and load.  Wall clocks are legitimate only
    for provenance and profiling (manifests, the task ledger, the measured
    run, budget guards, live progress), which ``ALLOW["DET003"]`` lists.

    Fix: inside simulation/analysis code, take the current time from the
    scheduler (``engine.now``) or thread it in as a parameter; timing for
    provenance belongs in the allowlisted modules.
    """
    for node, name in _calls(context):
        if name is None or name not in _WALL_CLOCK:
            continue
        if not context.imports_module(name.split(".")[0]):
            continue
        yield Finding(
            node.lineno,
            node.col_offset,
            f"wall-clock read {name}() outside the allowlisted "
            f"provenance/profiling modules",
        )


def _is_set_expression(node: ast.AST, context: FileContext) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return context.resolve(node.func) in {"set", "frozenset"}
    return False


def det004(context: FileContext) -> Iterator[Finding]:
    """Iteration over an unsorted ``set``/``frozenset``.

    Why: set iteration order depends on insertion history and, for strings,
    on ``PYTHONHASHSEED``, so the same data iterates in a different order in
    every sweep worker process.  When that order feeds output rows, RNG draw
    sequence, or filesystem writes, replicas of the same seed stop being
    byte-identical.

    Fix: iterate ``sorted(the_set)``, or keep a list/dict (insertion-ordered)
    when order of first appearance is the contract.
    """
    seen: set[tuple[int, int]] = set()

    def flag(node: ast.AST, what: str) -> Iterator[Finding]:
        key = (node.lineno, node.col_offset)
        if key not in seen:
            seen.add(key)
            yield Finding(
                node.lineno,
                node.col_offset,
                f"{what} iterates a set in hash/insertion order "
                f"(PYTHONHASHSEED-dependent for strings); wrap in sorted()",
            )

    for node in ast.walk(context.tree):
        if isinstance(node, ast.For) and _is_set_expression(node.iter, context):
            yield from flag(node.iter, "for loop")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                if _is_set_expression(generator.iter, context):
                    yield from flag(generator.iter, "comprehension")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and node.args
            and _is_set_expression(node.args[0], context)
        ):
            yield from flag(node.args[0], "str.join")


def det005(context: FileContext) -> Iterator[Finding]:
    """Unsorted filesystem scan (``glob``/``iterdir``/``listdir``) consumed directly.

    Why: ``glob``, ``rglob``, ``iterdir``, ``os.listdir`` and ``os.scandir``
    return entries in filesystem order, which differs between ext4, tmpfs
    and object-store mounts, and even between runs after deletions.  Any
    loop or aggregation over the raw result makes artifacts depend on which
    disk produced them.

    Fix: wrap the scan in ``sorted(...)`` at the call site,
    ``for path in sorted(directory.glob("seed_*.json")): ...``, and sort
    numerically when names carry numbers.
    """
    for node, name in _calls(context):
        if name in _FS_SCAN_FUNCTIONS and not context.imports_module("os"):
            continue
        is_scan = name in _FS_SCAN_FUNCTIONS or (
            isinstance(node.func, ast.Attribute) and node.func.attr in _FS_SCAN_METHODS
        )
        if not is_scan:
            continue
        parent = context.parent(node)
        if isinstance(parent, ast.Call) and context.resolve(parent.func) == "sorted":
            continue
        scan = name if name in _FS_SCAN_FUNCTIONS else node.func.attr  # type: ignore[union-attr]
        yield Finding(
            node.lineno,
            node.col_offset,
            f"{scan}() result used without sorted(); filesystem "
            f"enumeration order is not deterministic",
        )


def det006(context: FileContext) -> Iterator[Finding]:
    """Environment read outside a process entry point.

    Why: ``os.environ`` reads buried in library code are invisible inputs:
    two hosts with different environments silently produce different
    results from the same seed and spec.  Environment access belongs only at
    the process boundary, which must turn it into explicit parameters; no
    file under ``src/`` needs one, so ``ALLOW`` has no DET006 entry.

    Fix: read the variable once at the entry point and pass the value down
    as a function argument or config field.
    """
    if not context.imports_module("os"):
        return
    seen: set[tuple[int, int]] = set()
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        name = context.resolve(node)
        if name is None or not (
            name in {"os.environ", "os.environb", "os.getenv", "os.putenv"}
            or name.startswith("os.environ.")
            or name.startswith("os.environb.")
        ):
            continue
        key = (node.lineno, node.col_offset)
        if key in seen:
            continue
        seen.add(key)
        yield Finding(
            node.lineno,
            node.col_offset,
            f"{name} read outside a CLI/config entry point; pass the value in explicitly",
        )


def con001(context: FileContext) -> Iterator[Finding]:
    """Frozen-dataclass mutation outside ``__init__``/``__post_init__``.

    Why: ``object.__setattr__`` is the sanctioned escape hatch for frozen
    dataclasses to normalise fields during construction, and only then.  A
    mutation after construction breaks the immutability the rest of the
    code relies on (hash stability, safe sharing across sweep workers,
    cache keys).

    Fix: return a new instance instead (``dataclasses.replace`` or an
    ``evolve()`` method); keep ``object.__setattr__`` calls inside
    ``__init__``, ``__post_init__`` or ``__setstate__`` only.
    """
    allowed = {"__init__", "__post_init__", "__setstate__"}

    def walk(node: ast.AST, stack: tuple[str, ...]) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_stack = stack
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_stack = stack + (child.name,)
            if (
                isinstance(child, ast.Call)
                and context.resolve(child.func) == "object.__setattr__"
                and (not stack or stack[-1] not in allowed)
            ):
                yield Finding(
                    child.lineno,
                    child.col_offset,
                    "object.__setattr__ outside __init__/__post_init__ "
                    "mutates a frozen dataclass after construction",
                )
            yield from walk(child, child_stack)

    yield from walk(context.tree, ())


def err001(context: FileContext) -> Iterator[Finding]:
    """Bare ``Exception``/``ValueError``/``RuntimeError`` raised in library code.

    Why: the CLI promises one clean line per expected failure: it catches
    ``ExperimentError``/``ConfigurationError`` and prints them without a
    traceback, while everything else is treated as an internal bug and
    propagates with its stack.  Raising a bare builtin in CLI-reachable
    code therefore turns an expected, explainable failure into a traceback
    dump.

    Fix: raise the most specific ``repro.errors`` class
    (``ConfigurationError`` for bad parameters, ``ExperimentError`` for
    unknown ids/scales, ...); add a new ``ReproError`` subclass rather than
    reusing a builtin.  ``TypeError`` for constructor-signature misuse is
    exempt.
    """
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        name = context.resolve(target)
        if name in _BARE_EXCEPTIONS:
            yield Finding(
                node.lineno,
                node.col_offset,
                f"raise {name} in library code; raise a repro.errors "
                f"class so the CLI reports it as one line",
            )


RULES: dict[str, Callable[[FileContext], Iterator[Finding]]] = {
    "CON001": con001,
    "DET001": det001,
    "DET002": det002,
    "DET003": det003,
    "DET004": det004,
    "DET005": det005,
    "DET006": det006,
    "ERR001": err001,
}

#: rule id -> the files, relative to the lint root, that rule does not apply
#: to; ``test_every_allow_entry_silences_a_finding`` keeps each entry needed
ALLOW: dict[str, tuple[str, ...]] = {
    # the one stream factory allowed to construct random.Random
    "DET001": ("src/repro/sim/rng.py",),
    "DET003": (
        # the budget guard stops a run that outlives its wall-clock budget
        "src/repro/experiments/budget.py",
        # ledger rows stamp when a task changed state
        "src/repro/experiments/ledger.py",
        # a sweep report's elapsed wall clock
        "src/repro/experiments/runner.py",
        # the measured run (execute_task), worker task timeouts, retry backoff
        "src/repro/experiments/runtime.py",
        # manifests record timestamps and wall-clock provenance
        "src/repro/experiments/store.py",
        # live progress display rates (presentation only, never persisted)
        "src/repro/telemetry/progress.py",
    ),
}


def lint(root: Union[str, pathlib.Path], paths: Sequence[str]) -> list[str]:
    """``path:line:col: RULE message`` for every finding in the ``.py``
    files under ``paths``, directories relative to ``root``.

    Findings are reported relative to ``root`` and sorted by (path, line,
    column, rule).  Every file is read as UTF-8 whatever the locale.
    """
    root = pathlib.Path(root).resolve()
    for entry in paths:
        if not (root / entry).is_dir():
            raise NotADirectoryError(f"lint path is not a directory: {root / entry}")
    hits = []
    for path in sorted(path for entry in paths for path in (root / entry).rglob("*.py")):
        rel_path = path.relative_to(root).as_posix()
        context = FileContext(rel_path, path.read_text(encoding="utf-8"))
        for rule_id, rule in RULES.items():
            if rel_path in ALLOW.get(rule_id, ()):
                continue
            for line, column, message in rule(context):
                hits.append((rel_path, line, column, rule_id, message))
    return [
        f"{path}:{line}:{column}: {rule_id} {message}"
        for path, line, column, rule_id, message in sorted(hits)
    ]
