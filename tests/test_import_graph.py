"""The package-level import graph, computed from the sources (AST only —
nothing under ``src/repro`` is imported), against what
``docs/ARCHITECTURE.md`` states: the same edges, every one pointing to a
row below, except the one two-way edge the document names.  A new upward or
cyclic import fails here before it can become a second exception.  And the
graph has no dead end, at module level or at definition level: every module
under ``src/repro`` is imported, transitively, from something other than a
test, every public function, class and method has a reader outside
``tests/`` unless :data:`TEST_ONLY_API` says why it stays, and every
defaulted option is passed by some caller outside ``tests/`` unless
:data:`TEST_ONLY_OPTIONS` says why it stays."""

from __future__ import annotations

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

from repro.util.toml import tomllib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"


def _node(parts: tuple[str, ...]) -> str:
    """The diagram row a module path below ``repro`` belongs to."""
    if parts[:2] == ("experiments", "cli"):
        return "experiments.cli"  # the entry point sits above the facade
    if parts in ((), ("__init__",)):
        return "repro"
    return parts[0]


def _imported_modules():
    """``(importing file's parts, dotted module)`` for every import statement."""
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"relative import in {path}"
                names = [
                    f"repro.{alias.name}" if node.module == "repro" else node.module
                    for alias in node.names
                ]
            else:
                continue
            for name in names:
                yield parts, name


def _computed_edges() -> dict[str, set[str]]:
    edges: dict[str, set[str]] = {}
    for parts, name in _imported_modules():
        source = _node(parts)
        edges.setdefault(source, set())
        target_parts = tuple(name.split("."))
        if target_parts[0] == "repro" and _node(target_parts[1:]) != source:
            edges[source].add(_node(target_parts[1:]))
    return edges


def _stated_rows() -> list[tuple[str, list[str]]]:
    """The rows between the document's ``import-edges`` markers, in order."""
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    block = text.split("<!-- import-edges:begin -->")[1].split("<!-- import-edges:end -->")[0]
    rows = [line.split() for line in block.splitlines() if line and not line.startswith("```")]
    return [(row[0], [name for name in row[1:] if name != "-"]) for row in rows]


def test_the_diagram_states_the_import_edges_the_sources_have():
    stated = {row: {name.rstrip("*") for name in imports} for row, imports in _stated_rows()}
    assert _computed_edges() == stated


def test_every_import_points_down_except_the_one_named_edge():
    rows = _stated_rows()
    order = {row: index for index, (row, _imports) in enumerate(rows)}
    assert len(order) == len(rows), "a package is listed twice"
    upward = {
        (row, name.rstrip("*"))
        for row, imports in rows
        for name in imports
        if order[name.rstrip("*")] >= order[row]
    }
    starred = {
        (row, name.rstrip("*")) for row, imports in rows for name in imports if name.endswith("*")
    }
    assert upward == starred == {("experiments", "service")}


#: what runs the library other than its tests: the package itself, the
#: facade, the CLI, the registry's experiment modules (loaded by name), the
#: benchmark and the examples
ENTRY_MODULES = ("repro", "repro.api", "repro.experiments.cli")
ENTRY_SCRIPTS = (*sorted((REPO_ROOT / "bench").glob("*.py")),
                 *sorted((REPO_ROOT / "examples").glob("*.py")))


def _dotted_imports(path: pathlib.Path):
    """Every dotted name an import statement in ``path`` may load: the
    module, and for ``from m import x`` also ``m.x`` (``x`` may be a
    submodule)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _registry_modules() -> tuple[str, ...]:
    """``registry._EXPERIMENT_MODULES``, read from the source."""
    tree = ast.parse((PACKAGE / "experiments" / "registry.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "_EXPERIMENT_MODULES"
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("registry._EXPERIMENT_MODULES not found")


def test_every_module_is_reachable_from_a_non_test_entry_point():
    modules = {}
    for path in PACKAGE.rglob("*.py"):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path

    def loaded(names):
        """The modules importing ``names`` runs, parent packages included."""
        for name in names:
            parts = name.split(".")
            for end in range(1, len(parts) + 1):
                prefix = ".".join(parts[:end])
                if prefix in modules:
                    yield prefix

    frontier = list(loaded((*ENTRY_MODULES, *_registry_modules())))
    for script in ENTRY_SCRIPTS:
        frontier.extend(loaded(_dotted_imports(script)))
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached.add(module)
            frontier.extend(loaded(_dotted_imports(modules[module])))
    assert sorted(set(modules) - reached) == []


#: public definitions whose only readers are tests, and why each stays
TEST_ONLY_API = {
    "repro.analysis.local_maxima.prob_no_common_digits":
        "Section 4.2's quoted (3/4)^80, asserted against the paper's number",
    "repro.analysis.local_maxima.expected_hops_to_local_maximum":
        "Section 5.1's 1/C, the oracle of the random-walk baseline's test",
    "repro.baselines.walks.walk_hops_to_local_maximum":
        "the measured side of Section 5.1's 1/C comparison",
    "repro.api.scales": "public facade: lists every rung (README, api docstring)",
    "repro.core.flows.allowed_fanout":
        "Section 4.3 step by step; tests check the fused flow plan against it",
    "repro.core.flows.split_flow_budget":
        "Section 4.3 step by step; tests check the fused flow plan against it",
    "repro.core.flows.flows_consumed":
        "Section 4.3 step by step; tests check the fused flow plan against it",
    "repro.core.identifiers.IdSpace.from_hex": "public id constructor (README, tests)",
    "repro.core.identifiers.IdSpace.from_digits":
        "public id constructor for the paper's Figure 3-6 digit strings",
    "repro.core.identifiers.IdSpace.digit_of":
        "raw-value digit access, the oracle of the cached digit strings",
    "repro.core.identifiers.Identifier.circular_distance":
        "the tests' oracle for ring distance (the ring computes it on raw values)",
    "repro.core.identifiers.Identifier.common_digits_via_xor":
        "Section 4.1's XOR formulation, a second implementation of the metric",
    "repro.core.replicas.ReplicaDirectory.holders":
        "which nodes hold an object: what protocol tests assert on",
    "repro.experiments.base.ExperimentResult.filtered":
        "public row query of a result (tests, notebooks)",
    "repro.experiments.registry.unregister": "public API: inverse of api.register",
    "repro.experiments.scales.unregister_scale": "public API: inverse of api.register_scale",
    "repro.experiments.runner.SweepReport.outcome": "public lookup of one task's outcome",
    "repro.overlay.graph.OverlayGraph.from_edges":
        "public constructor for hand-written edge lists (worked examples, tests)",
    "repro.overlay.power_law.estimated_exponent":
        "ROADMAP item 6: the in-repo generators' distribution check will read it",
    "repro.overlay.random_graphs.gnp_random_graph":
        "public G(n, p) generator (not used by the paper); the oracle test pins it",
    "repro.overlay.random_graphs.ring_lattice_graph":
        "deterministic overlay for worked examples",
    "repro.overlay.transit_stub.TransitStubUnderlay.transit_nodes":
        "underlay structure the GT-ITM tests assert on",
    "repro.overlay.transit_stub.TransitStubUnderlay.num_transit_domains":
        "the region count regional outages are drawn over",
    "repro.overlay.transit_stub.TransitStubUnderlay.edge_list":
        "underlay structure the GT-ITM tests assert on",
    "repro.pastry.state.PastryRing.signed_offset":
        "ring geometry the leaf-set tests assert on",
    "repro.perturbation.churn.ChurnSchedule.session_boundaries":
        "the state flips a churn schedule's intervals are built from",
    "repro.perturbation.storms.JoinStormSchedule.late_joiners":
        "which nodes a join storm holds back",
    "repro.service.driver.ServiceReport.total_lookups": "public summary of a service run",
    "repro.service.driver.ServiceReport.total_successes": "public summary of a service run",
    "repro.service.driver.ServiceReport.violation_windows": "public summary of a service run",
    "repro.telemetry.sinks.read_jsonl":
        "ROADMAP item 3(a): the trace invariant checker will read it",
}

#: decorators that wrap a definition without reading it (any other
#: decorator — ``@experiment(...)``, ``@rule(...)`` — registers it)
_WRAPPERS = frozenset({
    "property", "setter", "staticmethod", "classmethod", "cached_property",
    "contextmanager", "dataclass", "runtime_checkable", "lru_cache", "cache",
})
_DOTTED_NAME = re.compile(r"[A-Za-z_][\w.:]*")


class _Reads(ast.NodeVisitor):
    """What a source reads: loaded names and attributes, names imported
    under another name, and the parts of dotted-name strings (``getattr``
    targets, the benchmark's boundary paths).  ``__all__`` is not a read.

    A ``self.<name>`` or ``cls.<name>`` read inside a class body is kept
    apart, in ``own[name]``, as the names of the classes it was read in:
    it reads that class's hierarchy, not every definition of the name."""

    def __init__(self):
        self.names: set[str] = set()
        self.attributes: set[str] = set()
        self.own: dict[str, set[str]] = {}
        self.bases: dict[str, set[str]] = {}
        self._classes: list[str] = []

    def visit_ClassDef(self, node):
        self.bases.setdefault(node.name, set()).update(_name_of(b) for b in node.bases)
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            if self._classes and _name_of(node.value) in ("self", "cls"):
                self.own.setdefault(node.attr, set()).add(self._classes[-1])
            else:
                self.attributes.add(node.attr)
        self.generic_visit(node)

    def hierarchy(self, cls: str) -> set[str]:
        """``cls``, its bases and its subclasses, transitively, by name."""
        related = {cls}
        for step in (
            lambda name: self.bases.get(name, ()),
            lambda name: [sub for sub, bases in self.bases.items() if name in bases],
        ):
            frontier = [cls]
            while frontier:
                for other in step(frontier.pop()):
                    if other not in related:
                        related.add(other)
                        frontier.append(other)
        return related

    def visit_alias(self, node):
        if node.asname:
            self.names.add(node.name.rsplit(".", 1)[-1])

    def visit_Constant(self, node):
        if isinstance(node.value, str) and _DOTTED_NAME.fullmatch(node.value):
            self.attributes.update(re.split(r"[.:]", node.value))


def _name_of(expression: ast.expr) -> str:
    """The name a decorator or a callee spells: ``x`` of ``x``, ``a.x`` and
    ``x(...)``."""
    if isinstance(expression, ast.Call):
        expression = expression.func
    if isinstance(expression, ast.Attribute):
        return expression.attr
    return getattr(expression, "id", "")


def _package_trees():
    """``(dotted module, parsed source)`` for every module under ``src/repro``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        yield module, ast.parse(path.read_text(encoding="utf-8"))


def _unread_public_definitions() -> list[str]:
    reads = _Reads()
    for path in (*sorted(PACKAGE.rglob("*.py")), *ENTRY_SCRIPTS):
        reads.visit(ast.parse(path.read_text(encoding="utf-8")))
    unread = []

    def walk(body, qualified: str, owner: "str | None"):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            registered = any(
                _name_of(d) not in _WRAPPERS for d in node.decorator_list
            )
            if owner is None:
                read = node.name in reads.names | reads.attributes
            else:
                read = node.name in reads.attributes or bool(
                    reads.own.get(node.name, set()) & reads.hierarchy(owner)
                )
            if not (node.name.startswith("_") or registered or read):
                unread.append(f"{qualified}.{node.name}")
            if isinstance(node, ast.ClassDef):
                walk(node.body, f"{qualified}.{node.name}", node.name)

    for module, tree in _package_trees():
        walk(tree.body, module, None)
    return unread


def test_a_self_read_reads_only_its_own_class_hierarchy():
    reads = _Reads()
    reads.visit(ast.parse(
        "class Base: pass\n"
        "class Ring(Base):\n"
        "    def f(self):\n"
        "        return self.distance, cls.width, other.size\n"
        "class Leaf(Ring): pass\n"
        "class Unrelated: pass\n"
    ))
    assert reads.own == {"distance": {"Ring"}, "width": {"Ring"}}
    assert "size" in reads.attributes and "distance" not in reads.attributes
    assert reads.hierarchy("Base") == {"Base", "Ring", "Leaf"}
    assert reads.hierarchy("Leaf") == {"Base", "Ring", "Leaf"}
    assert reads.hierarchy("Unrelated") == {"Unrelated"}


def test_every_public_definition_has_a_reader_outside_tests():
    """A definition only tests call is a mechanism kept alive by its own
    tests: delete it, give it a reader, or say in :data:`TEST_ONLY_API` why
    it stays.  An entry that gains a reader or goes leaves the list."""
    unread = set(_unread_public_definitions())
    assert sorted(unread - TEST_ONLY_API.keys()) == [], "read only by tests"
    assert sorted(TEST_ONLY_API.keys() - unread) == [], "stale TEST_ONLY_API entries"


_FACADE = "public facade argument (README, the api docstring)"
_MSPASTRY = "MSPastry model parameter: the paper's list (Section 6.2); tests vary it"
_GENERATOR = "overlay generator parameter: ROADMAP item 6 rewrites the generators"
_GT_ITM = "GT-ITM transit-stub latency table, kept whole"
#: the families' processes and configs are built through SCENARIO_FAMILIES
#: (``entry.process_class(seed=..., always_online=...)``,
#: ``entry.config(**params)``), which a name match cannot follow
_FAMILY_TABLE = "passed by keyword through SCENARIO_FAMILIES"

#: defaulted options no call outside ``tests/`` passes, and why each stays
TEST_ONLY_OPTIONS = {
    **dict.fromkeys(
        [
            f"repro.api.serve({name}=)"
            for name in ("experiment", "scale", "seed", "rate", "duration", "window")
        ]
        + ["repro.api.sweep(max_retries=)", "repro.api.sweep(task_timeout=)"],
        _FACADE,
    ),
    **dict.fromkeys(
        [
            f"repro.pastry.config.PastryConfig.{name}"
            for name in (
                "digit_bits", "leaf_set_size", "leafset_probe_period",
                "routing_table_probe_period", "probe_timeout", "probe_retries",
                "app_retransmissions", "app_retx_interval", "max_route_hops",
                "failure_eviction_rounds",
            )
        ]
        + ["repro.pastry.protocol.PastryNetwork(config=)"],
        _MSPASTRY,
    ),
    **dict.fromkeys(
        [
            "repro.overlay.power_law.power_law_graph(exponent=)",
            "repro.overlay.power_law.power_law_graph(min_degree=)",
            "repro.overlay.power_law.power_law_graph(max_degree=)",
            "repro.overlay.random_graphs.random_regular_graph(max_attempts=)",
        ],
        _GENERATOR,
    ),
    "repro.overlay.graph.OverlayGraph.from_csr(directed=)":
        "the CSR entry point's directed form, held to the list constructor's by tests",
    **dict.fromkeys(
        [
            f"repro.overlay.transit_stub.TransitStubParams.{name}"
            for name in (
                "transit_transit_latency", "intra_transit_latency",
                "transit_stub_latency", "intra_stub_latency", "jitter",
            )
        ],
        _GT_ITM,
    ),
    **dict.fromkeys(
        [
            f"repro.perturbation.{module}({name}=)"
            for module in (
                "adversarial.AdversarialRemoval", "storms.JoinStormSchedule",
                "waves.ChurnWaveSchedule",
            )
            for name in ("seed", "always_online")
        ]
        + [
            "repro.perturbation.outage.RegionalOutage(always_online=)",
            "repro.perturbation.adversarial.AdversarialRemovalConfig.start",
            "repro.perturbation.adversarial.AdversarialRemovalConfig.targeting",
        ],
        _FAMILY_TABLE,
    ),
    "repro.experiments.cli.main(argv=)":
        "the CLI's argument list: tests drive the CLI in-process through it",
    "repro.experiments.workloads.static_grid(built=)":
        "a cells stage: the pipeline calls it through the spec, as cells(ctx, built)",
    "repro.pastry.protocol.PastryNetwork(space=)":
        "public constructor: the id space of a hand-built ring (tests)",
    "repro.telemetry.spans.SpanRecorder.spans(name=)":
        "public span query by kind: what the protocol and telemetry tests assert on",
}


class _Calls(ast.NodeVisitor):
    """What the calls of one source pass, as ``(callee, keyword)`` and
    ``(callee, position)`` pairs added to ``passed``.  The callee is the
    name a call spells, with an import alias undone, ``cls(...)`` read as
    the class it is written in, ``super().__init__(...)`` as a call of
    that class's bases, and ``partial(f, ...)`` read as a call of ``f``;
    positions stop at the first ``*args``."""

    def __init__(self, passed: set):
        self.passed = passed
        self.aliases: dict[str, str] = {}
        self.classes: list[ast.ClassDef] = []

    def visit_alias(self, node):
        if node.asname:
            self.aliases[node.asname] = node.name.rsplit(".", 1)[-1]

    def visit_ClassDef(self, node):
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def _callees(self, func) -> list[str]:
        name = _name_of(func)
        if self.classes and name == "cls":
            return [self.classes[-1].name]
        if self.classes and name == "__init__" and _name_of(getattr(func, "value", None)) == "super":
            names = [_name_of(base) for base in self.classes[-1].bases]
        else:
            names = [name]
        return [self.aliases.get(name, name) for name in names]

    def visit_Call(self, node):
        self.generic_visit(node)
        func, args = node.func, node.args
        if _name_of(func) == "partial" and args:
            func, args = args[0], args[1:]
        for name in self._callees(func):
            for position, arg in enumerate(args):
                if isinstance(arg, ast.Starred):
                    break
                self.passed.add((name, position))
            self.passed.update((name, keyword.arg) for keyword in node.keywords if keyword.arg)


def test_calls_read_super_init_as_a_call_of_the_bases():
    passed: set = set()
    source = (
        "from pkg import Base as Renamed\n"
        "class Child(Renamed, mixins.Other):\n"
        "    def __init__(self, overlay, ids=None):\n"
        "        super().__init__(overlay, ids=ids)\n"
        "        self.helper.__init__(seed=1)\n"
    )
    _Calls(passed).visit(ast.parse(source))
    assert {("Base", 0), ("Base", "ids"), ("Other", 0), ("Other", "ids")} <= passed
    assert ("__init__", "ids") not in passed
    assert ("__init__", "seed") in passed  # not a super() call: read by name


def _defaulted(function: ast.FunctionDef, bound: bool):
    """``(parameter, position)`` of each defaulted parameter; ``bound``
    drops ``self``/``cls`` from the positions, and a keyword-only
    parameter has none."""
    arguments = function.args
    positional = [*arguments.posonlyargs, *arguments.args][1 if bound else 0 :]
    first = len(positional) - len(arguments.defaults)
    for position, argument in enumerate(positional[first:], start=first):
        yield argument.arg, position
    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            yield argument.arg, None


def _options():
    """``(option, callee, position, keyword)`` for every defaulted parameter
    of a public function, method or constructor under ``src/repro`` and
    every defaulted field of a public ``*Config``/``*Params`` dataclass —
    except those of a definition :data:`TEST_ONLY_API` already names."""

    def walk(body, qualified: str, owner: "ast.ClassDef | None"):
        for node in body:
            name = f"{qualified}.{node.name}" if hasattr(node, "name") else ""
            if name in TEST_ONLY_API:
                continue
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                dataclass = any(_name_of(d) == "dataclass" for d in node.decorator_list)
                if dataclass and node.name.endswith(("Config", "Params")):
                    fields = [
                        statement for statement in node.body
                        if isinstance(statement, ast.AnnAssign)
                    ]
                    for position, field in enumerate(fields):
                        if field.value is not None:
                            option = f"{name}.{field.target.id}"
                            yield option, node.name, position, field.target.id
                yield from walk(node.body, name, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                constructor = node.name == "__init__" and owner is not None
                if node.name.startswith("_") and not constructor:
                    continue
                static = any(_name_of(d) == "staticmethod" for d in node.decorator_list)
                callee = owner.name if constructor else node.name
                label = qualified if constructor else name
                for parameter, position in _defaulted(node, owner is not None and not static):
                    yield f"{label}({parameter}=)", callee, position, parameter

    for module, tree in _package_trees():
        yield from walk(tree.body, module, None)


def _unpassed_options() -> set[str]:
    passed: set = set()
    for path in (*sorted(PACKAGE.rglob("*.py")), *ENTRY_SCRIPTS):
        _Calls(passed).visit(ast.parse(path.read_text(encoding="utf-8")))
    return {
        option
        for option, callee, position, keyword in _options()
        if (callee, keyword) not in passed
        and (position is None or (callee, position) not in passed)
    }


def test_every_option_has_a_caller_outside_tests():
    """A defaulted parameter or config field that no call in ``src/``,
    ``bench/`` or ``examples/`` passes has one value in use: make it a
    constant (tests patch it), or say in :data:`TEST_ONLY_OPTIONS` why it
    stays.  An entry that gains a caller or goes leaves the list.

    Calls are matched to definitions by name, so this is a floor, not a
    proof: a method counts as passed by a call of that name on any object
    (``PastryNetwork.lookup(availability=)`` and ``MPILNetwork.lookup``
    share one name), while a call through a variable
    (``entry.process_class(...)``) or a ``**mapping`` passes nothing this
    check can see."""
    unpassed = _unpassed_options()
    assert sorted(unpassed - TEST_ONLY_OPTIONS.keys()) == [], "no caller outside tests"
    assert sorted(TEST_ONLY_OPTIONS.keys() - unpassed) == [], "stale TEST_ONLY_OPTIONS entries"


def test_third_party_imports_are_declared_dependencies():
    """``pyproject.toml`` said numpy only while the library imports scipy
    and networkx; an installed copy must be able to import what it ships."""
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        requirement.split(";")[0].strip() for requirement in project["dependencies"]
    }
    imported = {name.split(".")[0] for _parts, name in _imported_modules()}
    third_party = imported - set(sys.stdlib_module_names) - {"repro", "tomllib"}
    assert third_party == declared


def test_no_module_imports_scipy_at_import_time():
    """No module under ``src/repro`` imports scipy, at import time or
    inside a function body.  Importing ``scipy.stats`` dominated the
    library's start-up time and memory; Section 5 reads an exact binomial
    table and ``ci95`` an in-repo Student-t quantile instead.  The last
    call, the underlay's shortest paths, became a numpy relaxation, and
    ``scipy.sparse.csgraph`` alone had cost about 27 MiB of RSS.  scipy is
    an oracle of the tests only."""
    imports = sorted(
        f"{'.'.join(parts)}: {name}"
        for parts, name in _imported_modules()
        if name.split(".")[0] == "scipy"
    )
    assert imports == []


_SWEEP_MODULES = """
import json, sys
from repro import api
report = api.sweep(["fig7", "tab1"], seeds=[0, 1], scale="smoke", jobs=1, store=sys.argv[1])
assert not report.failures, report.failures
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_a_sweep_with_a_store_leaves_scipy_stats_unloaded(tmp_path):
    """A stored sweep's parent aggregates every cell (``ci95`` included)
    and never loads ``scipy.stats`` — it used to, at its first aggregate,
    for about 65 MiB of RSS."""
    done = subprocess.run(
        [sys.executable, "-c", _SWEEP_MODULES, str(tmp_path / "store")],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "store" / "tab1" / "smoke" / "aggregate.json").exists()
    assert "scipy.stats" not in json.loads(done.stdout.splitlines()[-1])


_PASTRY_RUN_MODULES = """
import json, sys
from repro import api
api.run("fig12", scale="smoke")
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_a_pastry_run_never_loads_scipy():
    """``fig12`` builds the transit-stub underlay and its all-pairs
    latencies, the last work that ran on scipy; a whole run leaves no
    ``scipy`` module loaded."""
    done = subprocess.run(
        [sys.executable, "-c", _PASTRY_RUN_MODULES],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
