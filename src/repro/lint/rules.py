"""The determinism-contract rules: named, testable AST checks.

Each rule encodes one clause of the repo's reproducibility or
error-handling contract (see ARCHITECTURE.md, "The determinism
contract").  Rules are instances registered under stable ids
(``DET001``..``DET006``, ``CON001``, ``ERR001``); each carries a
one-line ``title``, a ``rationale`` (why the contract exists), and a
``fix_pattern`` (what compliant code looks like) — surfaced by
``mpil-experiments lint --explain RULE``.

Rules are *syntactic*: they resolve names through the file's import
aliases (``import numpy as np`` makes ``np.random.seed`` recognisable)
but do no cross-module type inference.  Deliberate exemptions live in
``[tool.repro-lint]`` path allowlists or inline
``# repro: allow[RULE] reason`` suppressions, never in the rules.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator, Optional, Union

from repro.errors import ExperimentError


@dataclasses.dataclass(frozen=True)
class Finding:
    """One raw rule hit inside a file (path is attached by the engine)."""

    line: int
    column: int
    message: str


class FileContext:
    """One parsed source file plus the name-resolution tables rules need."""

    def __init__(self, rel_path: str, source: str):
        self.rel_path = rel_path
        self.source = source
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


class Rule:
    """Base class: subclasses set the metadata and implement :meth:`check`."""

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    fix_pattern: str = ""

    def check(self, context: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def explain(self) -> str:
        """The ``--explain`` payload: title, rationale, and fix pattern."""
        return (
            f"{self.rule_id}: {self.title}\n\n"
            f"Why: {self.rationale}\n\n"
            f"Fix: {self.fix_pattern}"
        )


_RULES: dict[str, Rule] = {}


def register_rule(rule: Union[Rule, type]) -> Union[Rule, type]:
    """Add a rule to the registry (classes are instantiated; duplicate ids
    rejected).  Usable as a class decorator."""
    instance = rule() if isinstance(rule, type) else rule
    if instance.rule_id in _RULES:
        raise ExperimentError(f"duplicate lint rule id {instance.rule_id!r}")
    _RULES[instance.rule_id] = instance
    return rule


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id."""
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    """The rule registered under ``rule_id`` (one-line error if unknown)."""
    try:
        return _RULES[rule_id]
    except KeyError:
        raise ExperimentError(
            f"unknown lint rule {rule_id!r}; known rules: {sorted(_RULES)}"
        ) from None


def _calls(context: FileContext) -> Iterator[tuple[ast.Call, Optional[str]]]:
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Call):
            yield node, context.resolve(node.func)


#: every stdlib `random` module draw/seed entry point worth naming in the
#: message; any other `random.<attr>()` call is flagged generically
_RANDOM_MODULE = "random"

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


@register_rule
class _Det001RawRandom(Rule):
    rule_id = "DET001"
    title = "stdlib `random` used directly instead of sim.rng.derive_rng"
    rationale = (
        "Every random draw must flow through repro.sim.rng.derive_rng so a "
        "(seed, labels) pair names the stream and replays identically "
        "regardless of call order, process boundaries, or which other "
        "streams exist.  A raw random.Random(), random.seed(), or "
        "module-global random.*() call creates an unnamed stream whose "
        "state leaks across call sites, silently forking trajectories "
        "between otherwise identical runs."
    )
    fix_pattern = (
        "rng = derive_rng(seed, \"my-subsystem\", index) and draw from that "
        "rng; only src/repro/sim/rng.py (the allowlisted stream factory) "
        "may construct random.Random itself."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if not context.imports_module(_RANDOM_MODULE):
            return
        for node, name in _calls(context):
            if name is None:
                continue
            if name == _RANDOM_MODULE or not name.startswith(_RANDOM_MODULE + "."):
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


@register_rule
class _Det002NumpyGlobalRng(Rule):
    rule_id = "DET002"
    title = "legacy NumPy global RNG (np.random.seed / np.random.rand*)"
    rationale = (
        "numpy.random's module-level functions share one hidden global "
        "MT19937 state: any import that seeds or draws from it perturbs "
        "every other user in the process, and parallel sweep workers "
        "inherit whatever state the parent left behind.  There is no "
        "allowlist — no module may use it."
    )
    fix_pattern = (
        "use numpy.random.Generator seeded from the derived stream: "
        "np.random.default_rng(derive_seed(seed, \"label\")), or draw via "
        "the random.Random returned by derive_rng."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
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


@register_rule
class _Det003WallClock(Rule):
    rule_id = "DET003"
    title = "wall-clock read outside the provenance/profiling allowlist"
    rationale = (
        "Simulation state must advance only on the EventScheduler's "
        "virtual clock; a wall-clock read (time.time, perf_counter, "
        "datetime.now, ...) that feeds simulation state or artifacts "
        "makes outputs depend on host speed and load.  Wall clocks are "
        "legitimate only for provenance and profiling — manifests, the "
        "task ledger, CLI elapsed reporting, budget guards — which the "
        "[tool.repro-lint] DET003 allowlist enumerates."
    )
    fix_pattern = (
        "inside simulation/analysis code, take the current time from the "
        "scheduler (engine.now) or thread it in as a parameter; timing "
        "for provenance belongs in the allowlisted modules "
        "(experiments/store.py, experiments/ledger.py, ...)."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
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


@register_rule
class _Det004SetIteration(Rule):
    rule_id = "DET004"
    title = "iteration over an unsorted set/frozenset"
    rationale = (
        "Set iteration order depends on insertion history and, for "
        "strings, on PYTHONHASHSEED — so the same data iterates in a "
        "different order in every sweep worker process.  When that order "
        "feeds output rows, RNG draw sequence, or filesystem writes, "
        "replicas of the same seed stop being byte-identical."
    )
    fix_pattern = (
        "iterate sorted(the_set) — or keep a list/dict (insertion-ordered) "
        "when order of first appearance is the contract."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
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
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
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


@register_rule
class _Det005UnsortedScan(Rule):
    rule_id = "DET005"
    title = "unsorted filesystem scan (glob/iterdir/listdir) consumed directly"
    rationale = (
        "glob, rglob, iterdir, os.listdir, and os.scandir return entries "
        "in filesystem order — which differs between ext4, tmpfs, and "
        "object-store mounts, and even between runs after deletions.  Any "
        "loop or aggregation over the raw result makes artifacts depend "
        "on which disk produced them."
    )
    fix_pattern = (
        "wrap the scan in sorted(...) at the call site — "
        "for path in sorted(directory.glob(\"seed_*.json\")): ... — and "
        "sort numerically when names carry numbers."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node, name in _calls(context):
            if name in _FS_SCAN_FUNCTIONS and not context.imports_module("os"):
                continue
            is_scan = name in _FS_SCAN_FUNCTIONS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _FS_SCAN_METHODS
            )
            if not is_scan:
                continue
            parent = context.parent(node)
            if (
                isinstance(parent, ast.Call)
                and context.resolve(parent.func) == "sorted"
            ):
                continue
            scan = (
                name if name in _FS_SCAN_FUNCTIONS
                else node.func.attr  # type: ignore[union-attr]
            )
            yield Finding(
                node.lineno,
                node.col_offset,
                f"{scan}() result used without sorted(); filesystem "
                f"enumeration order is not deterministic",
            )


@register_rule
class _Det006EnvironRead(Rule):
    rule_id = "DET006"
    title = "environment read outside CLI/config entry points"
    rationale = (
        "os.environ reads buried in library code are invisible inputs: "
        "two hosts with different environments silently produce different "
        "results from the same seed and spec.  Environment access is "
        "allowed only at the process boundary — CLI entry points and "
        "benchmark conftests named in the [tool.repro-lint] DET006 "
        "allowlist — which must turn it into explicit parameters."
    )
    fix_pattern = (
        "read the variable once at the entry point and pass the value "
        "down as a function argument or config field."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if not context.imports_module("os"):
            return
        seen: set[tuple[int, int]] = set()
        for node in ast.walk(context.tree):
            name: Optional[str] = None
            if isinstance(node, (ast.Attribute, ast.Name)):
                resolved = context.resolve(node)
                if resolved is not None and (
                    resolved in {"os.environ", "os.environb", "os.getenv",
                                 "os.putenv"}
                    or resolved.startswith("os.environ.")
                    or resolved.startswith("os.environb.")
                ):
                    name = resolved
            if name is None:
                continue
            key = (node.lineno, node.col_offset)
            if key in seen:
                continue
            seen.add(key)
            yield Finding(
                node.lineno,
                node.col_offset,
                f"{name} read outside a CLI/config entry point; pass the "
                f"value in explicitly",
            )


@register_rule
class _Con001FrozenMutation(Rule):
    rule_id = "CON001"
    title = "frozen-dataclass mutation outside __init__/__post_init__"
    rationale = (
        "object.__setattr__ is the sanctioned escape hatch for frozen "
        "dataclasses to normalise fields during construction — and only "
        "then.  A mutation after construction breaks the immutability "
        "the rest of the code relies on (hash stability, safe sharing "
        "across sweep workers, cache keys)."
    )
    fix_pattern = (
        "return a new instance instead (dataclasses.replace or an "
        "evolve() method); keep object.__setattr__ calls inside __init__ "
        "or __post_init__ only."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
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


@register_rule
class _Err001BareException(Rule):
    rule_id = "ERR001"
    title = "bare Exception/ValueError/RuntimeError raised in library code"
    rationale = (
        "The CLI promises one clean line per expected failure: it catches "
        "ExperimentError/ConfigurationError and prints them without a "
        "traceback, while everything else is treated as an internal bug "
        "and propagates with its stack.  Raising a bare builtin in "
        "CLI-reachable code therefore turns an expected, explainable "
        "failure into a traceback dump."
    )
    fix_pattern = (
        "raise the most specific repro.errors class (ConfigurationError "
        "for bad parameters, ExperimentError for unknown ids/scales, "
        "...); add a new ReproError subclass rather than reusing a "
        "builtin.  (TypeError for constructor-signature misuse is exempt.)"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
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
