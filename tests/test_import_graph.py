"""The package-level import graph, computed from the sources (AST only —
nothing under ``src/repro`` is imported), against what
``docs/ARCHITECTURE.md`` states: the same edges, every one pointing to a
row below, except the one two-way edge the document names.  A new upward or
cyclic import fails here before it can become a second exception.  And the
graph has no dead end, at module level or at definition level: every module
under ``src/repro`` is imported, transitively, from something other than a
test, and every public function, class and method has a reader outside
``tests/`` unless :data:`TEST_ONLY_API` says why it stays."""

from __future__ import annotations

import ast
import pathlib
import re
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
        "public constructor for hand-written edge lists",
    "repro.overlay.power_law.estimated_exponent":
        "ROADMAP item 6: the in-repo generators' distribution check will read it",
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
    targets, the benchmark's boundary paths).  ``__all__`` is not a read."""

    def __init__(self):
        self.names: set[str] = set()
        self.attributes: set[str] = set()

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.attributes.add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        if node.asname:
            self.names.add(node.name.rsplit(".", 1)[-1])

    def visit_Constant(self, node):
        if isinstance(node.value, str) and _DOTTED_NAME.fullmatch(node.value):
            self.attributes.update(re.split(r"[.:]", node.value))


def _decorator_name(decorator: ast.expr) -> str:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")


def _unread_public_definitions() -> list[str]:
    reads = _Reads()
    for path in (*sorted(PACKAGE.rglob("*.py")), *ENTRY_SCRIPTS):
        reads.visit(ast.parse(path.read_text(encoding="utf-8")))
    unread = []

    def walk(body, qualified: str, in_class: bool):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            registered = any(
                _decorator_name(d) not in _WRAPPERS for d in node.decorator_list
            )
            readers = reads.attributes if in_class else reads.names | reads.attributes
            if not (node.name.startswith("_") or registered or node.name in readers):
                unread.append(f"{qualified}.{node.name}")
            if isinstance(node, ast.ClassDef):
                walk(node.body, f"{qualified}.{node.name}", True)

    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        walk(ast.parse(path.read_text(encoding="utf-8")).body, module, False)
    return unread


def test_every_public_definition_has_a_reader_outside_tests():
    """A definition only tests call is a mechanism kept alive by its own
    tests: delete it, give it a reader, or say in :data:`TEST_ONLY_API` why
    it stays.  An entry that gains a reader or goes leaves the list."""
    unread = set(_unread_public_definitions())
    assert sorted(unread - TEST_ONLY_API.keys()) == [], "read only by tests"
    assert sorted(TEST_ONLY_API.keys() - unread) == [], "stale TEST_ONLY_API entries"


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
