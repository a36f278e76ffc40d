"""repro.lint — the determinism-contract static analyzer.

The repo's correctness story rests on byte-identical replays: every
random draw flows through :func:`repro.sim.rng.derive_rng`, simulation
state never reads wall clocks, filesystem scans are sorted, and expected
failures surface as :class:`repro.errors.ReproError` subclasses.  This
package encodes those conventions as named AST rules and runs them as a
repo-wide gate::

    from repro.lint import lint_paths
    report = lint_paths(["src"])
    assert report.ok, report.render_text()

or from the shell: ``mpil-experiments lint src``.

Rules (``mpil-experiments lint --explain RULE`` for rationale and fix):

========  ==========================================================
DET001    stdlib ``random`` used directly instead of ``derive_rng``
DET002    legacy NumPy global RNG (``np.random.seed``/``rand*``)
DET003    wall-clock read outside the provenance/profiling allowlist
DET004    iteration over an unsorted ``set``/``frozenset``
DET005    unsorted filesystem scan (``glob``/``iterdir``/``listdir``)
DET006    environment read outside CLI/config entry points
CON001    frozen-dataclass mutation outside ``__init__``/``__post_init__``
ERR001    bare ``Exception``/``ValueError``/``RuntimeError`` raised
========  ==========================================================

Exemptions are explicit and reviewable: per-line
``# repro: allow[DET003] reason`` suppressions, or path allowlists under
``[tool.repro-lint]`` in ``pyproject.toml`` (see :mod:`repro.lint.config`).
"""

from __future__ import annotations

from repro.lint.config import LintConfig, find_pyproject, load_config
from repro.lint.engine import SYNTAX_RULE_ID, lint_file, lint_paths
from repro.lint.report import REPORT_SCHEMA_VERSION, LintReport, Violation
from repro.lint.rules import FileContext, Rule, all_rules, get_rule

__all__ = [
    "FileContext",
    "LintConfig",
    "LintReport",
    "REPORT_SCHEMA_VERSION",
    "Rule",
    "SYNTAX_RULE_ID",
    "Violation",
    "all_rules",
    "find_pyproject",
    "get_rule",
    "lint_file",
    "lint_paths",
    "load_config",
]
