"""The prose names what the code defines.

``README.md`` and ``docs/ARCHITECTURE.md`` cite classes and their
attributes in backticks.  A rename or a deletion under ``src/repro`` leaves
such a citation behind silently; these tests name it instead:

- every backticked CamelCase name is a class defined under ``src/repro``,
  a builtin, or in :data:`NOT_OURS`;
- every backticked ``Class.attr`` (possibly module-qualified, possibly a
  call) whose class is defined under ``src/repro`` names a class
  attribute, a method, a dataclass field, a slot or a ``self.attr =``
  assignment in that class's body.
"""

from __future__ import annotations

import ast
import builtins
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCUMENTS = ("README.md", "docs/ARCHITECTURE.md")

#: CamelCase names the prose may cite that no module here defines
NOT_OURS = {"RandomState": "numpy's legacy generator, cited as what the code does not use"}

_SPAN = re.compile(r"`([^`\n]+)`")
_CAMEL = re.compile(r"[A-Z]\w*[a-z]\w*")
#: a dotted reference, optionally called: ``a.B.c``, ``B.c(x, y)``
_DOTTED = re.compile(r"([A-Za-z_][\w.]*?)(\(.*\))?")


def _attributes(node: ast.ClassDef) -> set[str]:
    """Names a class body defines: assignments, annotations (dataclass
    fields), ``def``/``class`` statements, ``__slots__`` entries, and every
    ``self.<name> =`` inside it."""
    names: set[str] = set()
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(statement.name)
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            names.add(statement.target.id)
        elif isinstance(statement, ast.Assign):
            targets = {t.id for t in statement.targets if isinstance(t, ast.Name)}
            names |= targets
            if "__slots__" in targets:
                names |= {
                    constant.value
                    for constant in ast.walk(statement.value)
                    if isinstance(constant, ast.Constant) and isinstance(constant.value, str)
                }
    for child in ast.walk(node):
        targets = []
        if isinstance(child, ast.Assign):
            targets = child.targets
        elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
            targets = [child.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                names.add(target.attr)
    return names


def _classes() -> dict[str, set[str]]:
    """Every class defined under ``src/repro`` → the names its body (or,
    for a name defined twice, either body) defines."""
    classes: dict[str, set[str]] = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, set()).update(_attributes(node))
    return classes


CLASSES = _classes()


def _references() -> list[tuple[str, str]]:
    """``(document:line, dotted name)`` for every backticked dotted
    reference, call arguments stripped."""
    found = []
    for document in DOCUMENTS:
        text = (REPO_ROOT / document).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for span in _SPAN.findall(line):
                match = _DOTTED.fullmatch(span)
                if match is not None:
                    found.append((f"{document}:{lineno}", match.group(1)))
    return found


REFERENCES = _references()


def test_every_cited_camelcase_name_is_defined():
    unknown = [
        f"{where}: `{name}`"
        for where, name in REFERENCES
        if _CAMEL.fullmatch(name)
        and name not in CLASSES
        and not hasattr(builtins, name)
        and name not in NOT_OURS
    ]
    assert unknown == []


def test_every_cited_class_attribute_exists():
    cited = [
        (where, owner, attribute)
        for where, name in REFERENCES
        for owner, attribute in zip(name.split("."), name.split(".")[1:])
        if owner in CLASSES
    ]
    assert len(cited) >= 20, "the scan no longer finds the prose's citations"
    stale = [
        f"{where}: `{owner}.{attribute}`"
        for where, owner, attribute in cited
        if attribute not in CLASSES[owner]
    ]
    assert stale == []


@pytest.mark.parametrize("name", sorted(NOT_OURS))
def test_the_allowlist_is_not_ours_and_is_cited(name):
    assert name not in CLASSES
    assert any(cited == name for _, cited in REFERENCES)
