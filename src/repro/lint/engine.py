"""Lint engine: file walking, project analysis, suppression, baseline.

The engine parses every file once, runs the per-function rules from
:mod:`repro.lint.rules` over each tree, then builds the project-wide
call graph + dataflow analysis (:mod:`repro.lint.callgraph`,
:mod:`repro.lint.dataflow`) and runs the interprocedural rules from
:mod:`repro.lint.iprules` over the whole set.  Three mechanisms keep the
gate usable:

* **inline** — a trailing ``# noqa`` comment suppresses every finding on
  that line; ``# noqa: SNAP001,DET001`` suppresses only those codes;
* **severity** — per-rule levels from ``[tool.repro-lint]`` in
  pyproject.toml (:mod:`repro.lint.config`): ``error`` findings fail the
  run, ``warning`` findings are reported but don't, ``off`` disables the
  rule;
* **baseline** — a committed JSON file of accepted findings.  Entries
  are keyed by a *fingerprint* of ``(path, code, stripped source line,
  call-path hash)`` — deliberately not the line number, so unrelated
  edits above a finding don't invalidate the baseline — with a count per
  fingerprint so duplicate-identical lines are budgeted, not
  blanket-allowed.  A finding beyond its baselined count is *new* and
  fails the run.  Version-1 baselines (pre-interprocedural, no call-path
  component) are still honoured on load; ``repro-lint migrate-baseline``
  rewrites them in the current schema.

``python -m repro.lint src/ --write-baseline`` (re)generates the file;
see :mod:`repro.lint.cli`.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.lint.config import LintConfig
from repro.lint.rules import RULES, LintContext, Rule

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "lint_paths",
    "lint_source",
    "lint_sources",
]

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9_,\s]+))?", re.IGNORECASE)


@dataclass(frozen=True)
class Finding:
    """One lint finding, carrying enough context to fingerprint itself."""

    path: str
    line: int
    col: int
    code: str
    message: str
    source_line: str = ""
    severity: str = "error"
    #: Interprocedural support: qnames from the reporting function to the
    #: sink (empty for per-function rules).
    call_path: tuple[str, ...] = ()

    def fingerprint(self) -> str:
        """Stable identity: path + code + source text + call-path hash.

        Line numbers are deliberately excluded so edits elsewhere in the
        file don't churn the baseline; the call-path component keeps two
        different interprocedural routes to the same line distinct.
        """
        route = hashlib.sha1(
            "->".join(self.call_path).encode("utf-8")
        ).hexdigest()[:8]
        payload = (
            f"{self.path}::{self.code}::{self.source_line.strip()}::{route}"
        )
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]

    def fingerprint_v1(self) -> str:
        """Legacy (version-1 baseline) identity, without the call path."""
        payload = f"{self.path}::{self.code}::{self.source_line.strip()}"
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        tag = " [warning]" if self.severity == "warning" else ""
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.code}{tag} {self.message}"
        )


def _noqa_codes(line: str) -> "frozenset[str] | None":
    """Codes suppressed on ``line``: ``frozenset()`` = all, ``None`` = none."""
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    codes = match.group("codes")
    if not codes:
        return frozenset()
    return frozenset(c.strip().upper() for c in codes.split(",") if c.strip())


def _selected(code: str, select, ignore, config: LintConfig) -> bool:
    if select and code.upper() not in {c.upper() for c in select}:
        return False
    if ignore and code.upper() in {c.upper() for c in ignore}:
        return False
    return config.enabled(code)


def _select_rules(
    select: "Sequence[str] | None",
    ignore: "Sequence[str] | None",
    config: LintConfig,
) -> list[Rule]:
    return [r for r in RULES if _selected(r.code, select, ignore, config)]


def _keep(finding: Finding, lines: "list[str]") -> "Finding | None":
    """Apply inline ``# noqa`` suppression; attach the source line."""
    text = (
        lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
    )
    suppressed = _noqa_codes(text)
    if suppressed is not None and (
        not suppressed or finding.code in suppressed
    ):
        return None
    return replace(finding, source_line=text)


def lint_sources(
    sources: "Mapping[str, str]",
    *,
    select: "Sequence[str] | None" = None,
    ignore: "Sequence[str] | None" = None,
    config: "LintConfig | None" = None,
) -> list[Finding]:
    """Lint a set of ``{path: source}`` as one project.

    Per-function rules run file by file; the interprocedural rules run
    over the project call graph built from every parseable file, so a
    single-file fixture still exercises caller + callee shapes defined
    together in it.
    """
    config = config or LintConfig()
    findings: list[Finding] = []
    trees: dict[str, ast.Module] = {}
    all_lines: dict[str, list[str]] = {}
    for raw_path in sources:
        norm = raw_path.replace("\\", "/")
        source = sources[raw_path]
        lines = source.splitlines()
        all_lines[norm] = lines
        try:
            tree = ast.parse(source, filename=norm)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=norm,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    code="PARSE001",
                    message=f"syntax error: {exc.msg}",
                    source_line=(exc.text or "").rstrip("\n"),
                )
            )
            continue
        trees[norm] = tree
        ctx = LintContext(path=norm)
        for rule in _select_rules(select, ignore, config):
            if not rule.applies(ctx):
                continue
            for hit in rule.check(tree, ctx):
                finding = _keep(
                    Finding(
                        path=norm,
                        line=hit.line,
                        col=hit.col,
                        code=hit.code,
                        message=hit.message,
                        severity=config.severity_of(hit.code),
                    ),
                    lines,
                )
                if finding is not None:
                    findings.append(finding)
    findings.extend(
        _project_findings(trees, all_lines, select, ignore, config)
    )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def _project_findings(
    trees: "dict[str, ast.Module]",
    all_lines: "dict[str, list[str]]",
    select,
    ignore,
    config: LintConfig,
) -> list[Finding]:
    from repro.lint.dataflow import ProjectAnalysis
    from repro.lint.iprules import PROJECT_RULES

    rules = [
        r for r in PROJECT_RULES
        if _selected(r.code, select, ignore, config)
    ]
    if not rules or not trees:
        return []
    analysis = ProjectAnalysis.build(trees)
    findings: list[Finding] = []
    for rule in rules:
        for hit in rule.check(analysis):
            finding = _keep(
                Finding(
                    path=hit.path,
                    line=hit.line,
                    col=hit.col,
                    code=hit.code,
                    message=hit.message,
                    severity=config.severity_of(hit.code),
                    call_path=hit.call_path,
                ),
                all_lines.get(hit.path, []),
            )
            if finding is not None:
                findings.append(finding)
    return findings


def lint_source(
    source: str,
    path: str,
    *,
    select: "Sequence[str] | None" = None,
    ignore: "Sequence[str] | None" = None,
    config: "LintConfig | None" = None,
) -> list[Finding]:
    """Lint one source string; ``path`` drives rule scoping.

    Fixture tests pass synthetic paths like ``"repro/core/bad.py"`` to opt
    snippets into the package-scoped rules.
    """
    return lint_sources(
        {path: source}, select=select, ignore=ignore, config=config
    )


def _iter_py_files(paths: Iterable[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    # De-duplicate while preserving order (overlapping path arguments).
    seen: set[Path] = set()
    unique = []
    for f in files:
        if f not in seen:
            seen.add(f)
            unique.append(f)
    return unique


def lint_paths(
    paths: Iterable[str],
    *,
    select: "Sequence[str] | None" = None,
    ignore: "Sequence[str] | None" = None,
    config: "LintConfig | None" = None,
) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    sources = {
        file.as_posix(): file.read_text(encoding="utf-8")
        for file in _iter_py_files(paths)
    }
    return lint_sources(
        sources, select=select, ignore=ignore, config=config
    )


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------
class Baseline:
    """Accepted findings, keyed by fingerprint with a per-key budget."""

    VERSION = 2

    def __init__(self, counts: "Counter[str] | None" = None,
                 notes: "dict[str, dict] | None" = None,
                 version: "int | None" = None):
        self.counts: Counter[str] = counts or Counter()
        #: Human-readable context per fingerprint (code/path/text), kept so
        #: the baseline file reviews well in diffs.
        self.notes: dict[str, dict] = notes or {}
        #: Schema the counts were keyed under (1 = legacy, no call path).
        self.version: int = version if version is not None else self.VERSION

    def _fingerprint(self, finding: Finding) -> str:
        return (
            finding.fingerprint_v1() if self.version < 2
            else finding.fingerprint()
        )

    @classmethod
    def load(cls, path: "str | Path") -> "Baseline":
        """Load a baseline file; a missing file is an empty baseline."""
        p = Path(path)
        if not p.exists():
            return cls()
        data = json.loads(p.read_text(encoding="utf-8"))
        counts: Counter[str] = Counter()
        notes: dict[str, dict] = {}
        for fp, entry in data.get("findings", {}).items():
            counts[fp] = int(entry.get("count", 1))
            notes[fp] = {
                k: entry[k] for k in ("code", "path", "text") if k in entry
            }
        return cls(counts, notes, version=int(data.get("version", 1)))

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        baseline = cls()
        for finding in findings:
            fp = finding.fingerprint()
            baseline.counts[fp] += 1
            baseline.notes.setdefault(fp, {
                "code": finding.code,
                "path": finding.path,
                "text": finding.source_line.strip(),
            })
        return baseline

    def save(self, path: "str | Path") -> None:
        payload = {
            "version": self.version,
            "tool": "repro.lint",
            "findings": {
                fp: {**self.notes.get(fp, {}), "count": count}
                for fp, count in sorted(self.counts.items())
            },
        }
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def filter_new(self, findings: Sequence[Finding]
                   ) -> tuple[list[Finding], int]:
        """Split findings into (new, num_baselined).

        The first ``count`` occurrences of each fingerprint are consumed
        by the baseline budget; anything beyond is new.  A version-1
        baseline matches on the legacy fingerprint, so committed
        suppressions keep working until migrated.
        """
        budget = Counter(self.counts)
        new: list[Finding] = []
        baselined = 0
        for finding in findings:
            fp = self._fingerprint(finding)
            if budget[fp] > 0:
                budget[fp] -= 1
                baselined += 1
            else:
                new.append(finding)
        return new, baselined

    def migrate(self, findings: Sequence[Finding]
                ) -> "tuple[Baseline, int, int]":
        """Re-key this baseline under the current schema.

        Every current finding whose *old*-schema fingerprint is budgeted
        here carries its suppression over to the new fingerprint.
        Returns ``(new_baseline, migrated, stale)`` where ``stale`` is the
        old budget that matched no current finding (fixed or vanished
        findings — dropped, with their notes, from the new file).
        """
        budget = Counter(self.counts)
        migrated = Baseline()
        moved = 0
        for finding in findings:
            old_fp = self._fingerprint(finding)
            if budget[old_fp] <= 0:
                continue
            budget[old_fp] -= 1
            moved += 1
            new_fp = finding.fingerprint()
            migrated.counts[new_fp] += 1
            migrated.notes.setdefault(new_fp, {
                "code": finding.code,
                "path": finding.path,
                "text": finding.source_line.strip(),
            })
        stale = sum(budget.values())
        return migrated, moved, stale


@dataclass
class LintReport:
    """Outcome of one engine run against a baseline."""

    findings: list[Finding] = field(default_factory=list)
    new: list[Finding] = field(default_factory=list)
    num_baselined: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.new if f.severity != "warning"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.new if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        """Warnings report but never fail the gate; errors do."""
        return not self.errors
