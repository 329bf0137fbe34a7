"""[tool.repro-lint] configuration: parsing, validation, discovery."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint.config import (
    ConfigError,
    LintConfig,
    load_config,
    parse_config,
)

KNOWN = frozenset({"SNAP101", "DTYPE001"})


def parse(toml: str) -> LintConfig:
    return parse_config(
        textwrap.dedent(toml).encode("utf-8"), known_codes=KNOWN
    )


class TestParsing:
    def test_empty_pyproject_gives_defaults(self):
        config = parse("[project]\nname = 'x'\n")
        assert config == LintConfig()

    def test_severity_overrides(self):
        config = parse("""
            [tool.repro-lint.severity]
            DTYPE001 = "warning"
            SNAP101 = "off"
        """)
        assert config.severity_of("DTYPE001") == "warning"
        assert not config.enabled("SNAP101")
        assert config.severity_of("QPROTO001") == "error"

    def test_lowercase_code_is_normalized(self):
        config = parse("""
            [tool.repro-lint.severity]
            dtype001 = "warning"
        """)
        assert config.severity_of("DTYPE001") == "warning"

    def test_unknown_code_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown rule code"):
            parse("""
                [tool.repro-lint.severity]
                NOPE999 = "warning"
            """)

    def test_bad_severity_is_rejected(self):
        with pytest.raises(ConfigError, match="severity must be one of"):
            parse("""
                [tool.repro-lint.severity]
                SNAP101 = "loud"
            """)


class TestDiscovery:
    def test_load_walks_up_to_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""
            [tool.repro-lint.severity]
            DTYPE001 = "warning"
        """), encoding="utf-8")
        nested = tmp_path / "src" / "repro"
        nested.mkdir(parents=True)
        config = load_config(nested, known_codes=KNOWN)
        assert config.severity_of("DTYPE001") == "warning"

    def test_missing_pyproject_gives_defaults(self, tmp_path):
        config = load_config(tmp_path, known_codes=KNOWN)
        assert config == LintConfig()

    def test_direct_file_path(self, tmp_path):
        target = tmp_path / "pyproject.toml"
        target.write_text(textwrap.dedent("""
            [tool.repro-lint.severity]
            SNAP101 = "off"
        """), encoding="utf-8")
        config = load_config(target, known_codes=KNOWN)
        assert not config.enabled("SNAP101")

    def test_repo_pyproject_parses_with_all_registered_codes(self):
        # The committed configuration must load against the real rule
        # registry (a typo'd code or severity fails the gate loudly).
        from pathlib import Path

        from repro.lint.iprules import PROJECT_RULES
        from repro.lint.rules import all_codes

        root = Path(__file__).resolve().parents[2]
        known = frozenset(all_codes()) | {r.code for r in PROJECT_RULES}
        config = parse_config(
            (root / "pyproject.toml").read_bytes(), known_codes=known
        )
        assert config == LintConfig()
