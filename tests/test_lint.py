"""Tests for repro.lint: the determinism-contract static analyzer.

Structure:

- one bad/good fixture pair per rule (flagged snippet, clean rewrite);
- suppression semantics (right id silences, wrong id does not);
- config semantics (path allowlists, excludes, TOML loading);
- JSON report schema round-trip;
- the CLI ``lint`` command's exit codes and output formats;
- a seeded fixture *tree* with one violation per rule (the acceptance
  scenario: every rule reports id, path:line, and a one-line message);
- the self-lint gate: ``src/repro`` is clean under the full rule set with
  the repo's own pyproject allowlists.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.lint import (
    REPORT_SCHEMA_VERSION,
    LintConfig,
    LintReport,
    Violation,
    all_rules,
    get_rule,
    lint_paths,
    load_config,
)
from repro.lint.config import find_pyproject
from repro.lint.engine import SYNTAX_RULE_ID, suppressions_by_line

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

ALL_RULE_IDS = [
    "CON001",
    "DET001",
    "DET002",
    "DET003",
    "DET004",
    "DET005",
    "DET006",
    "ERR001",
]

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


def lint_source(
    tmp_path: pathlib.Path,
    source: str,
    rule_id: str | None = None,
    filename: str = "snippet.py",
    config: LintConfig | None = None,
) -> LintReport:
    """Write ``source`` under ``tmp_path`` and lint it."""
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return lint_paths(
        [target],
        config=config if config is not None else LintConfig(root=tmp_path),
        rules=[rule_id] if rule_id is not None else None,
    )


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_bad_snippet_flagged_at_line(self, tmp_path, rule_id):
        bad, line, _good = FIXTURES[rule_id]
        report = lint_source(tmp_path, bad, rule_id)
        assert [v.rule_id for v in report.violations] == [rule_id]
        violation = report.violations[0]
        assert violation.line == line
        assert violation.path == "snippet.py"
        assert violation.message  # one-line, non-empty
        assert "\n" not in violation.message

    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_good_snippet_clean(self, tmp_path, rule_id):
        _bad, _line, good = FIXTURES[rule_id]
        report = lint_source(tmp_path, good, rule_id)
        assert report.ok, report.render_text()

    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_suppression_honored(self, tmp_path, rule_id):
        bad, line, _good = FIXTURES[rule_id]
        lines = bad.splitlines()
        lines[line - 1] += f"  # repro: allow[{rule_id}] fixture exemption"
        report = lint_source(tmp_path, "\n".join(lines) + "\n", rule_id)
        assert report.ok
        assert report.suppressed == 1

    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_wrong_suppression_id_does_not_silence(self, tmp_path, rule_id):
        bad, line, _good = FIXTURES[rule_id]
        other = "DET001" if rule_id != "DET001" else "DET002"
        lines = bad.splitlines()
        lines[line - 1] += f"  # repro: allow[{other}] wrong rule"
        report = lint_source(tmp_path, "\n".join(lines) + "\n", rule_id)
        assert [v.rule_id for v in report.violations] == [rule_id]


class TestRuleDetails:
    def test_det001_from_import_and_module_functions(self, tmp_path):
        source = (
            "from random import Random, shuffle\n"
            "import random\n"
            "r = Random(3)\n"
            "shuffle([1, 2])\n"
            "random.seed(5)\n"
            "x = random.randint(0, 9)\n"
        )
        report = lint_source(tmp_path, source, "DET001")
        assert [v.line for v in report.violations] == [3, 4, 5, 6]

    def test_det001_ignores_annotations_and_rng_parameters(self, tmp_path):
        source = (
            "import random\n"
            "def draw(rng: random.Random) -> int:\n"
            "    return rng.randint(0, 9)\n"
        )
        assert lint_source(tmp_path, source, "DET001").ok

    def test_det001_needs_the_import(self, tmp_path):
        # a local object that happens to be called `random` is not the module
        source = (
            "class _Fake:\n"
            "    def seed(self, n):\n"
            "        return n\n"
            "random = _Fake()\n"
            "random.seed(3)\n"
        )
        assert lint_source(tmp_path, source, "DET001").ok

    def test_det002_aliased_and_direct(self, tmp_path):
        source = (
            "import numpy\n"
            "import numpy as np\n"
            "numpy.random.seed(1)\n"
            "x = np.random.rand(4)\n"
            "state = np.random.RandomState(2)\n"
        )
        report = lint_source(tmp_path, source, "DET002")
        assert [v.line for v in report.violations] == [3, 4, 5]

    def test_det002_generator_api_clean(self, tmp_path):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.standard_normal(3)\n"
        )
        assert lint_source(tmp_path, source, "DET002").ok

    def test_det003_from_import_and_datetime(self, tmp_path):
        source = (
            "from time import perf_counter\n"
            "from datetime import datetime\n"
            "t0 = perf_counter()\n"
            "stamp = datetime.now()\n"
        )
        report = lint_source(tmp_path, source, "DET003")
        assert [v.line for v in report.violations] == [3, 4]

    def test_det004_comprehension_and_join(self, tmp_path):
        source = (
            "items = ['b', 'a']\n"
            "dedup = [x for x in set(items)]\n"
            "label = ','.join({'x', 'y'})\n"
        )
        report = lint_source(tmp_path, source, "DET004")
        assert [v.line for v in report.violations] == [2, 3]

    def test_det004_sorted_wrapping_clean(self, tmp_path):
        source = (
            "items = ['b', 'a']\n"
            "dedup = [x for x in sorted(set(items))]\n"
            "label = ','.join(sorted({'x', 'y'}))\n"
        )
        assert lint_source(tmp_path, source, "DET004").ok

    def test_det005_listdir_and_sorted_wrap(self, tmp_path):
        source = (
            "import os\n"
            "import pathlib\n"
            "bad = os.listdir('.')\n"
            "good = sorted(os.listdir('.'))\n"
            "also_good = sorted(pathlib.Path('.').iterdir())\n"
        )
        report = lint_source(tmp_path, source, "DET005")
        assert [v.line for v in report.violations] == [3]

    def test_det006_subscript_get_and_getenv(self, tmp_path):
        source = (
            "import os\n"
            "a = os.environ['HOME']\n"
            "b = os.environ.get('HOME')\n"
            "c = os.getenv('HOME')\n"
            "d = os.path.join('x', 'y')\n"
        )
        report = lint_source(tmp_path, source, "DET006")
        assert [v.line for v in report.violations] == [2, 3, 4]

    def test_err001_exception_and_exempt_typeerror(self, tmp_path):
        source = (
            "def f(flag):\n"
            "    if flag == 1:\n"
            "        raise Exception('boom')\n"
            "    if flag == 2:\n"
            "        raise TypeError('wrong kind')\n"
            "    raise NotImplementedError\n"
        )
        report = lint_source(tmp_path, source, "ERR001")
        assert [v.line for v in report.violations] == [3]

    def test_err001_reraise_clean(self, tmp_path):
        source = (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except KeyError:\n"
            "        raise\n"
        )
        assert lint_source(tmp_path, source, "ERR001").ok

    def test_syntax_error_reported_not_raised(self, tmp_path):
        report = lint_source(tmp_path, "def broken(:\n")
        assert [v.rule_id for v in report.violations] == [SYNTAX_RULE_ID]
        assert not report.ok


class TestSuppressionParsing:
    def test_multiple_ids_and_reason(self):
        markers = suppressions_by_line(
            "x = 1\n"
            "y = glob()  # repro: allow[DET004, DET005] both fine here\n"
        )
        assert markers == {2: {"DET004", "DET005"}}

    def test_plain_comments_ignored(self):
        assert suppressions_by_line("# just a comment about repro\nx = 1\n") == {}


class TestConfig:
    def test_allowlist_exempts_file_and_counts(self, tmp_path):
        bad, _line, _good = FIXTURES["DET001"]
        config = LintConfig(root=tmp_path, allow={"DET001": ("pkg",)})
        report = lint_source(
            tmp_path, bad, "DET001", filename="pkg/stream.py", config=config
        )
        assert report.ok
        assert report.allowed == 1

    def test_allowlist_is_per_rule(self, tmp_path):
        bad, _line, _good = FIXTURES["DET001"]
        config = LintConfig(root=tmp_path, allow={"DET002": ("pkg",)})
        report = lint_source(
            tmp_path, bad, "DET001", filename="pkg/stream.py", config=config
        )
        assert not report.ok

    def test_glob_patterns_match(self, tmp_path):
        config = LintConfig(root=tmp_path, allow={"DET003": ("src/*/timing.py",)})
        assert config.is_allowed("DET003", tmp_path / "src" / "a" / "timing.py")
        assert not config.is_allowed("DET003", tmp_path / "src" / "a" / "other.py")

    def test_exclude_skips_files(self, tmp_path):
        bad, _line, _good = FIXTURES["ERR001"]
        (tmp_path / "vendored").mkdir()
        (tmp_path / "vendored" / "third_party.py").write_text(bad)
        report = lint_paths(
            [tmp_path],
            config=LintConfig(root=tmp_path, exclude=("vendored",)),
        )
        assert report.ok
        assert report.files_scanned == 0

    def test_load_config_from_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint]\n"
            'exclude = ["generated"]\n'
            "[tool.repro-lint.allow]\n"
            'DET001 = ["src/streams.py"]\n'
        )
        config = load_config(start=tmp_path / "sub" / "dir")
        assert config.root == tmp_path
        assert config.allow["DET001"] == ("src/streams.py",)
        assert config.exclude == ("generated",)

    def test_missing_table_yields_empty_config(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
        config = load_config(start=tmp_path)
        assert config.allow == {}
        assert config.exclude == ()

    def test_no_pyproject_yields_empty_config(self, tmp_path):
        assert find_pyproject(tmp_path) is None or True  # env-independent
        config = load_config(start="/")
        assert config.exclude == ()

    def test_explicit_pyproject_must_exist(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(pyproject=tmp_path / "nope.toml")

    def test_bad_allow_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            LintConfig.from_dict({"allow": {"DET001": [1, 2]}})
        with pytest.raises(ConfigurationError):
            LintConfig.from_dict({"exclude": 7})


class TestReportSchema:
    def _report(self, tmp_path) -> LintReport:
        bad, _line, _good = FIXTURES["DET001"]
        return lint_source(tmp_path, bad, "DET001")

    def test_json_round_trip(self, tmp_path):
        report = self._report(tmp_path)
        payload = json.loads(report.to_json())
        assert payload["version"] == REPORT_SCHEMA_VERSION
        restored = LintReport.from_dict(payload)
        assert restored.violations == report.violations
        assert restored.files_scanned == report.files_scanned

    def test_schema_fields(self, tmp_path):
        payload = self._report(tmp_path).to_dict()
        assert sorted(payload) == [
            "allowed", "counts", "files_scanned", "suppressed",
            "version", "violations",
        ]
        (entry,) = payload["violations"]
        assert sorted(entry) == ["column", "line", "message", "path", "rule_id"]
        assert payload["counts"] == {"DET001": 1}

    def test_unknown_version_rejected(self, tmp_path):
        payload = self._report(tmp_path).to_dict()
        payload["version"] = 99
        with pytest.raises(ExperimentError):
            LintReport.from_dict(payload)

    def test_violations_sorted_deterministically(self, tmp_path):
        (tmp_path / "b.py").write_text("import random\nrandom.seed(1)\n")
        (tmp_path / "a.py").write_text(
            "import random\nrandom.seed(1)\nrandom.seed(2)\n"
        )
        report = lint_paths([tmp_path], config=LintConfig(root=tmp_path))
        keys = [(v.path, v.line) for v in report.violations]
        assert keys == sorted(keys) == [("a.py", 2), ("a.py", 3), ("b.py", 2)]

    def test_render_text_lines_are_grepable(self, tmp_path):
        report = self._report(tmp_path)
        first = report.render_text().splitlines()[0]
        assert first.startswith("snippet.py:2:")
        assert "DET001" in first


class TestEngineEdges:
    def test_missing_path_is_one_line_error(self):
        with pytest.raises(ConfigurationError):
            lint_paths(["definitely/not/here"])

    def test_empty_path_list_rejected(self):
        with pytest.raises(ConfigurationError):
            lint_paths([])

    def test_unknown_rule_rejected(self, tmp_path):
        (tmp_path / "x.py").write_text("pass\n")
        with pytest.raises(ExperimentError):
            lint_paths([tmp_path], config=LintConfig(root=tmp_path),
                       rules=["NOPE"])

    def test_every_rule_has_explain_metadata(self):
        rules = all_rules()
        assert [rule.rule_id for rule in rules] == ALL_RULE_IDS
        for rule in rules:
            assert rule.title and rule.rationale and rule.fix_pattern
            text = rule.explain()
            assert rule.rule_id in text and "Fix:" in text

    def test_get_rule_unknown_is_one_line_error(self):
        with pytest.raises(ExperimentError):
            get_rule("DET999")


class TestSeededFixtureTree:
    """The acceptance scenario: one seeded violation per rule, in a tree."""

    def test_every_rule_fires_once_with_location(self, tmp_path):
        expected: dict[str, tuple[str, int]] = {}
        for rule_id, (bad, line, _good) in FIXTURES.items():
            rel = f"pkg/bad_{rule_id.lower()}.py"
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(bad)
            expected[rule_id] = (rel, line)
        report = lint_paths([tmp_path], config=LintConfig(root=tmp_path))
        assert report.counts() == {rule_id: 1 for rule_id in FIXTURES}
        by_rule = {v.rule_id: v for v in report.violations}
        for rule_id, (rel, line) in expected.items():
            violation = by_rule[rule_id]
            assert (violation.path, violation.line) == (rel, line)
            assert violation.message and "\n" not in violation.message


class TestCli:
    def _tree(self, tmp_path) -> pathlib.Path:
        bad, _line, _good = FIXTURES["DET001"]
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "bad.py").write_text(bad)
        return tree

    def test_violations_exit_1_and_print(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.cli import main

        monkeypatch.chdir(tmp_path)  # no pyproject above tmp: empty config
        tree = self._tree(tmp_path)
        assert main(["lint", str(tree)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "bad.py:2" in out

    def test_clean_exit_0(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.cli import main

        monkeypatch.chdir(tmp_path)
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format_and_report_file(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.cli import main

        monkeypatch.chdir(tmp_path)
        tree = self._tree(tmp_path)
        report_path = tmp_path / "out" / "lint.json"
        code = main(
            ["lint", str(tree), "--format", "json", "--report", str(report_path)]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"DET001": 1}
        assert json.loads(report_path.read_text()) == payload

    def test_rules_subset(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.cli import main

        monkeypatch.chdir(tmp_path)
        tree = self._tree(tmp_path)
        # DET003 never fires on a DET001 fixture
        assert main(["lint", str(tree), "--rules", "DET003"]) == 0
        capsys.readouterr()

    def test_explain_and_list_rules(self, capsys):
        from repro.experiments.cli import main

        assert main(["lint", "--explain", "DET003"]) == 0
        out = capsys.readouterr().out
        assert "DET003" in out and "Fix:" in out
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out

    def test_unknown_rule_exits_2(self, capsys):
        from repro.experiments.cli import main

        assert main(["lint", "--explain", "DET999"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_missing_path_exits_2(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["lint", "does/not/exist"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_explicit_config_flag(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.cli import main

        monkeypatch.chdir(tmp_path)
        tree = self._tree(tmp_path)
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro-lint.allow]\nDET001 = [\"tree\"]\n"
        )
        assert main(["lint", str(tree), "--config", str(pyproject)]) == 0
        capsys.readouterr()


class TestApiFacade:
    def test_api_lint_runs_and_reports(self, tmp_path):
        from repro import api

        bad, _line, _good = FIXTURES["DET002"]
        (tmp_path / "mod.py").write_text(bad)
        report = api.lint(
            [tmp_path], config=LintConfig(root=tmp_path), rules=["DET002"]
        )
        assert isinstance(report, LintReport)
        assert report.counts() == {"DET002": 1}

    def test_api_exports_lint(self):
        from repro import api

        assert "lint" in api.__all__
        assert "LintReport" in api.__all__


class TestSelfLint:
    """The repo must honour its own contract (the CI gate condition)."""

    def test_src_clean_under_full_rule_set(self):
        config = load_config(start=REPO_ROOT)
        assert config.root == REPO_ROOT  # the repo's own pyproject governs
        report = lint_paths([REPO_ROOT / "src"], config=config)
        assert report.ok, "\n" + report.render_text()
        # the allowlists are load-bearing: the carve-outs they cover exist
        assert report.allowed > 0

    def test_repo_allowlists_name_real_files(self):
        config = load_config(start=REPO_ROOT)
        for rule_id, patterns in config.allow.items():
            get_rule(rule_id)  # every allowlisted id is a registered rule
            for pattern in patterns:
                if any(ch in pattern for ch in "*?["):
                    continue
                assert (REPO_ROOT / pattern).exists(), (
                    f"[tool.repro-lint] allow.{rule_id} names a missing "
                    f"path: {pattern}"
                )

    def test_sorted_violation_dataclass_ordering(self):
        a = Violation("a.py", 1, 0, "DET001", "m")
        b = Violation("a.py", 1, 0, "DET002", "m")
        c = Violation("b.py", 1, 0, "DET001", "m")
        assert sorted([c, b, a]) == [a, b, c]
