"""The package-level import graph, computed from the sources (AST only —
nothing under ``src/repro`` is imported), against what
``docs/ARCHITECTURE.md`` states: the same edges, every one pointing to a
row below, except the one two-way edge the document names.  A new upward or
cyclic import fails here before it can become a second exception.  And the
module-level graph has no dead end: every module under ``src/repro`` is
imported, transitively, from something other than a test."""

from __future__ import annotations

import ast
import pathlib
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
        for node in ast.walk(ast.parse(path.read_text())):
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
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
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
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _registry_modules() -> tuple[str, ...]:
    """``registry._EXPERIMENT_MODULES``, read from the source."""
    tree = ast.parse((PACKAGE / "experiments" / "registry.py").read_text())
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


def test_third_party_imports_are_declared_dependencies():
    """``pyproject.toml`` said numpy only while the library imports scipy
    and networkx; an installed copy must be able to import what it ships."""
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        requirement.split(";")[0].strip() for requirement in project["dependencies"]
    }
    imported = {name.split(".")[0] for _parts, name in _imported_modules()}
    third_party = imported - set(sys.stdlib_module_names) - {"repro", "tomllib"}
    assert third_party == declared
