"""Tests for the determinism-contract rules in ``determinism_lint``.

Structure:

- one bad/good fixture pair per rule (flagged snippet, clean rewrite); each
  bad snippet is flagged by its own rule only, and an inline
  ``# repro: allow[RULE]`` comment no longer silences it;
- every rule's docstring states what it flags, why, and the fix;
- rule details: import aliases, sorted() wrapping, exempt forms;
- a seeded fixture *tree* with one violation per rule: every rule reports
  its id, path:line and a one-line message through :func:`lint`, dropping
  any one rule from :data:`RULES` loses exactly its line, and an
  :data:`ALLOW` entry exempts one rule on one file;
- the self-lint gate: ``src/`` is clean under every rule with the
  :data:`ALLOW` exemptions, and every exemption is needed.
"""

from __future__ import annotations

import pathlib

import determinism_lint
import pytest
from determinism_lint import ALLOW, RULES, FileContext, lint

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: rule id -> (bad snippet, 1-based line the violation lands on, clean snippet)
FIXTURES = {
    "DET001": (
        "import random\n"
        "rng = random.Random(7)\n",
        2,
        "from repro.sim.rng import derive_rng\n"
        "rng = derive_rng(7, 'fixture')\n",
    ),
    "DET002": (
        "import numpy as np\n"
        "np.random.seed(0)\n",
        2,
        "import numpy as np\n"
        "rng = np.random.default_rng(0)\n",
    ),
    "DET003": (
        "import time\n"
        "stamp = time.time()\n",
        2,
        "def stamp(now: float) -> float:\n"
        "    return now\n",
    ),
    "DET004": (
        "names = {'a', 'b'}\n"
        "for name in names | set():\n"
        "    print(name)\n",
        2,
        "names = {'a', 'b'}\n"
        "for name in sorted(names):\n"
        "    print(name)\n",
    ),
    "DET005": (
        "import pathlib\n"
        "def scan(root: pathlib.Path) -> list:\n"
        "    return [p for p in root.glob('*.json')]\n",
        3,
        "import pathlib\n"
        "def scan(root: pathlib.Path) -> list:\n"
        "    return [p for p in sorted(root.glob('*.json'))]\n",
    ),
    "DET006": (
        "import os\n"
        "scale = os.environ.get('REPRO_SCALE', 'smoke')\n",
        2,
        "def pick_scale(scale: str = 'smoke') -> str:\n"
        "    return scale\n",
    ),
    "CON001": (
        "import dataclasses\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Box:\n"
        "    value: int\n"
        "    def bump(self) -> None:\n"
        "        object.__setattr__(self, 'value', self.value + 1)\n",
        6,
        "import dataclasses\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Box:\n"
        "    value: int\n"
        "    def __post_init__(self) -> None:\n"
        "        object.__setattr__(self, 'value', abs(self.value))\n"
        "    def bump(self) -> 'Box':\n"
        "        return dataclasses.replace(self, value=self.value + 1)\n",
    ),
    "ERR001": (
        "def check(n: int) -> int:\n"
        "    if n < 0:\n"
        "        raise ValueError(f'n must be >= 0, got {n}')\n"
        "    return n\n",
        3,
        "from repro.errors import ConfigurationError\n"
        "def check(n: int) -> int:\n"
        "    if n < 0:\n"
        "        raise ConfigurationError(f'n must be >= 0, got {n}')\n"
        "    return n\n",
    ),
}

#: DET004's bad fixture uses a set *operation* result; the simple literal
#: case is covered separately below, so keep the table honest here
FIXTURES["DET004"] = (
    "for name in {'a', 'b'}:\n"
    "    print(name)\n",
    1,
    "for name in sorted({'a', 'b'}):\n"
    "    print(name)\n",
)


def findings(source: str, rule_id: str) -> list:
    """What one rule finds in ``source``, in (line, column) order."""
    return sorted(RULES[rule_id](FileContext("snippet.py", source)))


def finding_lines(source: str, rule_id: str) -> list[int]:
    return [finding.line for finding in findings(source, rule_id)]


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_bad_snippet_flagged_at_line(self, rule_id):
        bad, line, _good = FIXTURES[rule_id]
        (finding,) = findings(bad, rule_id)
        assert finding.line == line
        assert finding.message  # one-line, non-empty
        assert "\n" not in finding.message

    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_good_snippet_clean(self, rule_id):
        _bad, _line, good = FIXTURES[rule_id]
        assert findings(good, rule_id) == []

    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_no_other_rule_flags_the_bad_snippet(self, rule_id):
        bad, _line, _good = FIXTURES[rule_id]
        assert {other: findings(bad, other) for other in RULES if other != rule_id} == {
            other: [] for other in RULES if other != rule_id
        }

    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_inline_allow_comment_does_not_silence(self, rule_id, tmp_path):
        """Exemptions are whole files in ALLOW; the old per-line comment
        channel is gone and must not quietly come back."""
        bad, line, _good = FIXTURES[rule_id]
        lines = bad.splitlines(keepends=True)
        lines[line - 1] = lines[line - 1].rstrip("\n") + f"  # repro: allow[{rule_id}] reason\n"
        (tmp_path / "bad.py").write_text("".join(lines), encoding="utf-8")
        (hit,) = lint(tmp_path, ["."])
        assert hit.startswith(f"bad.py:{line}:") and f": {rule_id} " in hit


class TestRuleDocstrings:
    @pytest.mark.parametrize("rule_id", sorted(RULES))
    def test_docstring_states_what_why_and_fix(self, rule_id):
        doc = RULES[rule_id].__doc__
        assert doc is not None
        title, *paragraphs = [part.strip() for part in doc.strip().split("\n\n")]
        assert title and "\n" not in title
        assert [part.split(":")[0] for part in paragraphs] == ["Why", "Fix"]
        assert all(len(part) > len("Why: ") for part in paragraphs)


class TestRuleDetails:
    def test_det001_from_import_and_module_functions(self):
        source = (
            "from random import Random, shuffle\n"
            "import random\n"
            "r = Random(3)\n"
            "shuffle([1, 2])\n"
            "random.seed(5)\n"
            "x = random.randint(0, 9)\n"
        )
        assert finding_lines(source, "DET001") == [3, 4, 5, 6]

    def test_det001_ignores_annotations_and_rng_parameters(self):
        source = (
            "import random\n"
            "def draw(rng: random.Random) -> int:\n"
            "    return rng.randint(0, 9)\n"
        )
        assert finding_lines(source, "DET001") == []

    def test_det001_needs_the_import(self):
        # a local object that happens to be called `random` is not the module
        source = (
            "class _Fake:\n"
            "    def seed(self, n):\n"
            "        return n\n"
            "random = _Fake()\n"
            "random.seed(3)\n"
        )
        assert finding_lines(source, "DET001") == []

    def test_det002_aliased_and_direct(self):
        source = (
            "import numpy\n"
            "import numpy as np\n"
            "numpy.random.seed(1)\n"
            "x = np.random.rand(4)\n"
            "state = np.random.RandomState(2)\n"
        )
        assert finding_lines(source, "DET002") == [3, 4, 5]

    def test_det002_generator_api_clean(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.standard_normal(3)\n"
        )
        assert finding_lines(source, "DET002") == []

    def test_det003_from_import_and_datetime(self):
        source = (
            "from time import perf_counter\n"
            "from datetime import datetime\n"
            "t0 = perf_counter()\n"
            "stamp = datetime.now()\n"
        )
        assert finding_lines(source, "DET003") == [3, 4]

    def test_det004_comprehension_and_join(self):
        source = (
            "items = ['b', 'a']\n"
            "dedup = [x for x in set(items)]\n"
            "label = ','.join({'x', 'y'})\n"
        )
        assert finding_lines(source, "DET004") == [2, 3]

    def test_det004_sorted_wrapping_clean(self):
        source = (
            "items = ['b', 'a']\n"
            "dedup = [x for x in sorted(set(items))]\n"
            "label = ','.join(sorted({'x', 'y'}))\n"
        )
        assert finding_lines(source, "DET004") == []

    def test_det005_listdir_and_sorted_wrap(self):
        source = (
            "import os\n"
            "import pathlib\n"
            "bad = os.listdir('.')\n"
            "good = sorted(os.listdir('.'))\n"
            "also_good = sorted(pathlib.Path('.').iterdir())\n"
        )
        assert finding_lines(source, "DET005") == [3]

    def test_det006_subscript_get_and_getenv(self):
        source = (
            "import os\n"
            "a = os.environ['HOME']\n"
            "b = os.environ.get('HOME')\n"
            "c = os.getenv('HOME')\n"
            "d = os.path.join('x', 'y')\n"
        )
        assert finding_lines(source, "DET006") == [2, 3, 4]

    def test_err001_exception_and_exempt_typeerror(self):
        source = (
            "def f(flag):\n"
            "    if flag == 1:\n"
            "        raise Exception('boom')\n"
            "    if flag == 2:\n"
            "        raise TypeError('wrong kind')\n"
            "    raise NotImplementedError\n"
        )
        assert finding_lines(source, "ERR001") == [3]

    def test_err001_reraise_clean(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except KeyError:\n"
            "        raise\n"
        )
        assert finding_lines(source, "ERR001") == []


def seed_tree(root: pathlib.Path) -> dict[str, str]:
    """Write every rule's bad fixture under ``root/pkg``; rule id ->
    ``path:line:`` prefix of the finding it must produce."""
    expected = {}
    for rule_id, (bad, line, _good) in FIXTURES.items():
        rel = f"pkg/bad_{rule_id.lower()}.py"
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(bad, encoding="utf-8")
        expected[rule_id] = f"{rel}:{line}:"
    return expected


class TestSeededFixtureTree:
    """The acceptance scenario: one seeded violation per rule, in a tree."""

    def test_every_rule_fires_once_with_location(self, tmp_path):
        expected = seed_tree(tmp_path)
        hits = lint(tmp_path, ["."])
        assert len(hits) == len(FIXTURES)
        for rule_id, location in expected.items():
            (hit,) = [hit for hit in hits if hit.startswith(location)]
            assert f": {rule_id} " in hit and "\n" not in hit

    @pytest.mark.parametrize("rule_id", sorted(RULES))
    def test_dropping_a_rule_loses_exactly_its_finding(self, rule_id, tmp_path, monkeypatch):
        expected = seed_tree(tmp_path)
        full = lint(tmp_path, ["."])
        monkeypatch.delitem(determinism_lint.RULES, rule_id)
        assert lint(tmp_path, ["."]) == [
            hit for hit in full if not hit.startswith(expected[rule_id])
        ]

    @pytest.mark.parametrize("rule_id", sorted(RULES))
    def test_allow_exempts_its_rule_on_its_file_only(self, rule_id, tmp_path, monkeypatch):
        bad, line, _good = FIXTURES[rule_id]
        for name in ("a.py", "b.py"):
            (tmp_path / name).write_text(bad, encoding="utf-8")
        other_rule = next(other for other in sorted(RULES) if other != rule_id)
        monkeypatch.setattr(
            determinism_lint, "ALLOW", {rule_id: ("a.py",), other_rule: ("b.py",)}
        )
        (hit,) = lint(tmp_path, ["."])
        assert hit.startswith(f"b.py:{line}:") and f": {rule_id} " in hit

    def test_lines_sorted_by_path_then_line(self, tmp_path):
        (tmp_path / "b.py").write_text("import random\nrandom.seed(1)\n", encoding="utf-8")
        (tmp_path / "a.py").write_text(
            "import random\n" + "x = 1\n" * 7 + "random.seed(1)\nrandom.seed(2)\n",
            encoding="utf-8",
        )
        assert [line.split(": ")[0] for line in lint(tmp_path, ["."])] == [
            "a.py:9:0", "a.py:10:0", "b.py:2:0",
        ]

    def test_a_file_that_does_not_parse_fails_the_gate(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        with pytest.raises(SyntaxError):
            lint(tmp_path, ["."])

    def test_a_missing_directory_fails_the_gate(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            lint(tmp_path, ["srcc"])


ALLOW_ENTRIES = [(rule_id, path) for rule_id, paths in ALLOW.items() for path in paths]


class TestSelfLint:
    """The repo must honour its own contract (the tier-1 gate)."""

    def test_src_clean_under_full_rule_set(self):
        assert lint(REPO_ROOT, ["src"]) == []

    @pytest.mark.parametrize("rule_id, path", ALLOW_ENTRIES)
    def test_repo_allowlists_name_real_files(self, rule_id, path):
        assert rule_id in RULES
        assert (REPO_ROOT / path).is_file(), f"ALLOW[{rule_id!r}] names a missing file: {path}"

    @pytest.mark.parametrize("rule_id, path", ALLOW_ENTRIES)
    def test_every_allow_entry_silences_a_finding(self, rule_id, path):
        """An exemption that silences nothing would let a future violation
        in that file land unreviewed."""
        source = (REPO_ROOT / path).read_text(encoding="utf-8")
        assert list(RULES[rule_id](FileContext(path, source))), f"stale ALLOW entry {rule_id} {path}"
