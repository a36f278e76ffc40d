"""The one TOML reader: stdlib ``tomllib`` on Python 3.11+, its backport
``tomli`` (same API; a declared dependency there) on 3.10."""

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised only on 3.10
    import tomli as tomllib

__all__ = ["tomllib"]
