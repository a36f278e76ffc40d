"""``[tool.repro-lint]`` configuration: path allowlists and excludes.

The analyzer's rules are absolute statements of the determinism contract;
the *config* records where the contract deliberately does not apply — the
one module allowed to construct ``random.Random`` (``sim/rng.py``), the
provenance/budget modules allowed to read wall clocks, the entry points
allowed to read the environment.  Keeping those carve-outs in
``pyproject.toml`` (not in the rules) makes every exemption reviewable in
one place::

    [tool.repro-lint]
    exclude = ["src/repro/_vendored"]

    [tool.repro-lint.allow]
    DET001 = ["src/repro/sim/rng.py"]
    DET003 = ["src/repro/experiments/store.py", "src/repro/experiments/budget.py"]

Entries are paths relative to the directory holding ``pyproject.toml``:
an exact file path, a directory prefix (everything under it), or an
``fnmatch`` glob.  :func:`load_config` walks upward from a start path to
find the governing ``pyproject.toml``, so ``mpil-experiments lint`` works
from any subdirectory of a checkout.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import pathlib
from typing import Mapping, Optional, Union

from repro.errors import ConfigurationError
from repro.util.toml import tomllib

#: the pyproject table the analyzer reads
CONFIG_TABLE = "repro-lint"


def _match(rel_path: str, pattern: str) -> bool:
    """True iff ``rel_path`` (POSIX, relative) matches one config entry."""
    pattern = pattern.rstrip("/")
    if rel_path == pattern:
        return True
    if rel_path.startswith(pattern + "/"):
        return True
    return fnmatch.fnmatch(rel_path, pattern)


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Resolved analyzer configuration.

    ``root`` anchors the relative paths in ``allow``/``exclude`` (and the
    paths violations are reported under); with no config file it defaults
    to the current directory.
    """

    root: pathlib.Path = dataclasses.field(default_factory=pathlib.Path.cwd)
    allow: Mapping[str, tuple[str, ...]] = dataclasses.field(default_factory=dict)
    exclude: tuple[str, ...] = ()

    def relative_path(self, path: Union[str, pathlib.Path]) -> str:
        """``path`` as a POSIX string relative to the config root (files
        outside the root keep their absolute form)."""
        resolved = pathlib.Path(path).resolve()
        try:
            return resolved.relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return resolved.as_posix()

    def is_excluded(self, path: Union[str, pathlib.Path]) -> bool:
        rel = self.relative_path(path)
        return any(_match(rel, pattern) for pattern in self.exclude)

    def is_allowed(self, rule_id: str, path: Union[str, pathlib.Path]) -> bool:
        """True iff ``rule_id`` is exempted for this file by the config."""
        patterns = self.allow.get(rule_id, ())
        if not patterns:
            return False
        rel = self.relative_path(path)
        return any(_match(rel, pattern) for pattern in patterns)

    @classmethod
    def from_dict(
        cls, payload: Mapping, root: Union[str, pathlib.Path, None] = None
    ) -> "LintConfig":
        """Build a config from a ``[tool.repro-lint]`` table's contents."""
        allow_table = payload.get("allow", {})
        if not isinstance(allow_table, Mapping):
            raise ConfigurationError(
                f"[tool.{CONFIG_TABLE}] allow must be a table of "
                f"rule-id -> path list, got {type(allow_table).__name__}"
            )
        allow: dict[str, tuple[str, ...]] = {}
        for rule_id, patterns in allow_table.items():
            if isinstance(patterns, str):
                patterns = [patterns]
            if not isinstance(patterns, (list, tuple)) or not all(
                isinstance(p, str) for p in patterns
            ):
                raise ConfigurationError(
                    f"[tool.{CONFIG_TABLE}] allow.{rule_id} must be a list "
                    f"of path strings"
                )
            allow[str(rule_id)] = tuple(patterns)
        exclude = payload.get("exclude", [])
        if isinstance(exclude, str):
            exclude = [exclude]
        if not isinstance(exclude, (list, tuple)) or not all(
            isinstance(p, str) for p in exclude
        ):
            raise ConfigurationError(
                f"[tool.{CONFIG_TABLE}] exclude must be a list of path strings"
            )
        return cls(
            root=pathlib.Path(root) if root is not None else pathlib.Path.cwd(),
            allow=allow,
            exclude=tuple(exclude),
        )


def find_pyproject(start: Union[str, pathlib.Path]) -> Optional[pathlib.Path]:
    """The nearest ``pyproject.toml`` at or above ``start``, or None."""
    current = pathlib.Path(start).resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(
    start: Union[str, pathlib.Path, None] = None,
    pyproject: Union[str, pathlib.Path, None] = None,
) -> LintConfig:
    """Resolve the analyzer config for a lint invocation.

    ``pyproject`` names the file explicitly; otherwise the nearest
    ``pyproject.toml`` at or above ``start`` (default: the current
    directory) governs.  A missing file or missing ``[tool.repro-lint]``
    table yields the empty config — every rule applies everywhere.
    """
    if pyproject is not None:
        path = pathlib.Path(pyproject)
        if not path.is_file():
            raise ConfigurationError(f"no pyproject file at {path}")
    else:
        found = find_pyproject(start if start is not None else pathlib.Path.cwd())
        if found is None:
            return LintConfig()
        path = found
    try:
        table = tomllib.loads(path.read_text(encoding="utf-8")).get("tool", {}).get(CONFIG_TABLE, {})
    except tomllib.TOMLDecodeError as exc:
        raise ConfigurationError(f"invalid TOML in {path}: {exc}") from exc
    return LintConfig.from_dict(table, root=path.parent)
