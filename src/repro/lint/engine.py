"""The analyzer driver: walk files, run rules, apply exemptions.

:func:`lint_paths` is the one entry point — the CLI ``lint`` command and
``api.lint`` both call it.  For every Python file under the given paths
it parses the source once, runs every registered rule (or a requested
subset), and filters the raw findings through the two sanctioned
exemption channels:

- **inline suppressions** — ``# repro: allow[DET003] reason`` on the
  offending line silences exactly those rule ids for that line;
- **config allowlists** — ``[tool.repro-lint] allow.DET003 = [...]``
  path patterns exempt whole files from one rule (see
  :mod:`repro.lint.config`).

Both channels are counted in the returned :class:`LintReport` so a clean
run still shows how many exemptions it leaned on.  Files that fail to
parse are reported as ``SYNTAX`` violations rather than aborting the
scan.  Output ordering is fully deterministic: files are visited in
sorted path order and violations are sorted by (path, line, column,
rule id).
"""

from __future__ import annotations

import pathlib
import re
from typing import Iterable, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.lint.config import LintConfig, load_config
from repro.lint.report import LintReport, Violation
from repro.lint.rules import FileContext, Rule, all_rules, get_rule

#: pseudo-rule id for files the parser rejects (always fails the gate)
SYNTAX_RULE_ID = "SYNTAX"

#: inline suppression marker: ``# repro: allow[DET003] reason`` or
#: ``# repro: allow[DET004,DET005] reason``
_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Za-z0-9_,\s]+)\]"
)


def suppressions_by_line(source: str) -> dict[int, set[str]]:
    """1-based line -> rule ids silenced on that line."""
    markers: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(line)
        if match:
            markers[lineno] = {
                rule_id.strip()
                for rule_id in match.group("rules").split(",")
                if rule_id.strip()
            }
    return markers


def iter_python_files(
    paths: Sequence[Union[str, pathlib.Path]]
) -> list[pathlib.Path]:
    """Every ``.py`` file under ``paths``, deduplicated, sorted.

    Directories are walked recursively; explicit file arguments are taken
    as-is (and must exist).  Missing paths raise a one-line
    :class:`ConfigurationError` rather than silently scanning nothing.
    """
    files: set[pathlib.Path] = set()
    for entry in paths:
        path = pathlib.Path(entry)
        if path.is_dir():
            files.update(p for p in sorted(path.rglob("*.py")) if p.is_file())
        elif path.is_file():
            files.add(path)
        else:
            raise ConfigurationError(f"lint path does not exist: {path}")
    return sorted(files)


def lint_file(
    path: Union[str, pathlib.Path],
    config: LintConfig,
    rules: Optional[Iterable[Rule]] = None,
) -> tuple[list[Violation], int, int]:
    """Lint one file: ``(violations, suppressed_count, allowed_count)``."""
    file_path = pathlib.Path(path)
    rel_path = config.relative_path(file_path)
    source = file_path.read_text(encoding="utf-8")
    try:
        context = FileContext(rel_path, source)
    except SyntaxError as exc:
        return (
            [
                Violation(
                    path=rel_path,
                    line=exc.lineno or 1,
                    column=(exc.offset or 1) - 1,
                    rule_id=SYNTAX_RULE_ID,
                    message=f"file does not parse: {exc.msg}",
                )
            ],
            0,
            0,
        )
    markers = suppressions_by_line(source)
    violations: list[Violation] = []
    suppressed = 0
    allowed = 0
    for rule in rules if rules is not None else all_rules():
        if config.is_allowed(rule.rule_id, file_path):
            allowed += sum(1 for _ in rule.check(context))
            continue
        for finding in rule.check(context):
            if rule.rule_id in markers.get(finding.line, ()):
                suppressed += 1
                continue
            violations.append(
                Violation(
                    path=rel_path,
                    line=finding.line,
                    column=finding.column,
                    rule_id=rule.rule_id,
                    message=finding.message,
                )
            )
    return violations, suppressed, allowed


def lint_paths(
    paths: Sequence[Union[str, pathlib.Path]],
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run the analyzer over files/directories and return the report.

    ``config=None`` auto-discovers the governing ``pyproject.toml``
    (nearest one at or above the first path); pass an explicit
    :class:`LintConfig` to pin allowlists in tests.  ``rules`` limits the
    pass to the named rule ids (unknown ids raise the one-line error).
    """
    if not paths:
        raise ConfigurationError("lint needs at least one path")
    if config is None:
        config = load_config(start=paths[0])
    selected = (
        [get_rule(rule_id) for rule_id in rules] if rules is not None else None
    )
    violations: list[Violation] = []
    suppressed = 0
    allowed = 0
    files = [
        path for path in iter_python_files(paths) if not config.is_excluded(path)
    ]
    for path in files:
        file_violations, file_suppressed, file_allowed = lint_file(
            path, config, rules=selected
        )
        violations.extend(file_violations)
        suppressed += file_suppressed
        allowed += file_allowed
    return LintReport(
        violations=tuple(sorted(violations)),
        files_scanned=len(files),
        suppressed=suppressed,
        allowed=allowed,
    )
