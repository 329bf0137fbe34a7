"""Per-rule configuration: severities from pyproject.toml.

Configuration lives under ``[tool.repro-lint]``::

    [tool.repro-lint]

    [tool.repro-lint.severity]
    DTYPE001 = "warning"      # report, never fail the gate
    DET001 = "off"            # disable entirely

Severities are ``error`` (default — a new finding fails the run),
``warning`` (reported, exit status unaffected) and ``off`` (rule not
run).  Unknown codes are rejected so typos can't silently disable a
rule.

``tomllib`` ships with Python 3.11; on 3.10 the stdlib cannot parse TOML
and :func:`load_config` degrades to the defaults (the CI gate runs the
full matrix, so a misconfigured severity still surfaces on >=3.11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.10 fallback
    tomllib = None  # type: ignore[assignment]

__all__ = ["ConfigError", "LintConfig", "SEVERITIES", "load_config"]

SEVERITIES = ("error", "warning", "off")


class ConfigError(ValueError):
    """Invalid ``[tool.repro-lint]`` configuration."""


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration (defaults when no pyproject is read)."""

    #: code -> severity override; unlisted codes default to "error".
    severity: dict[str, str] = field(default_factory=dict)

    def severity_of(self, code: str) -> str:
        return self.severity.get(code.upper(), "error")

    def enabled(self, code: str) -> bool:
        return self.severity_of(code) != "off"


def _validate(severity: dict, known_codes) -> None:
    for code, level in severity.items():
        if known_codes is not None and code not in known_codes:
            raise ConfigError(
                f"[tool.repro-lint.severity]: unknown rule code {code!r}"
            )
        if level not in SEVERITIES:
            raise ConfigError(
                f"[tool.repro-lint.severity.{code}]: severity must be one "
                f"of {SEVERITIES}, got {level!r}"
            )


def load_config(
    start: "str | Path | None" = None,
    *,
    known_codes: "frozenset[str] | None" = None,
) -> LintConfig:
    """Load config from the nearest ``pyproject.toml`` at/above ``start``.

    ``start`` defaults to the working directory.  Missing file, missing
    ``[tool.repro-lint]`` table, or a 3.10 interpreter (no ``tomllib``)
    all yield the default config.
    """
    if tomllib is None:
        return LintConfig()
    base = Path(start) if start is not None else Path.cwd()
    if base.is_file() and base.name != "pyproject.toml":
        base = base.parent
    candidates = (
        [base] if base.name == "pyproject.toml"
        else [p / "pyproject.toml" for p in [base, *base.parents]]
    )
    for candidate in candidates:
        if candidate.is_file():
            return parse_config(
                candidate.read_bytes(), known_codes=known_codes
            )
    return LintConfig()


def parse_config(
    data: bytes,
    *,
    known_codes: "frozenset[str] | None" = None,
) -> LintConfig:
    """Parse pyproject bytes into a :class:`LintConfig`."""
    if tomllib is None:  # pragma: no cover - 3.10 fallback
        return LintConfig()
    table = tomllib.loads(data.decode("utf-8"))
    section = table.get("tool", {}).get("repro-lint", {})
    if not isinstance(section, dict):
        raise ConfigError("[tool.repro-lint] must be a table")
    raw_severity = section.get("severity", {})
    if not isinstance(raw_severity, dict):
        raise ConfigError("[tool.repro-lint.severity] must be a table")
    severity = {
        str(code).upper(): level for code, level in raw_severity.items()
    }
    _validate(severity, known_codes)
    return LintConfig(severity=severity)
