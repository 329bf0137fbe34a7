"""Command-line front end: ``python -m repro.lint`` / ``repro-lint``.

Exit status: 0 when every finding is suppressed or baselined, 1 when new
error-severity findings exist, 2 on usage errors (including paths that
contain no Python files).  Typical invocations::

    python -m repro.lint src/                 # gate the library tree
    python -m repro.lint src/ --write-baseline  # accept current findings
    repro-lint src/ --select SNAP101,SHM001   # only the race rules
    repro-lint src/ --format json             # machine-readable output
    repro-lint src/ --sarif lint.sarif        # SARIF for PR annotation
    repro-lint migrate-baseline               # re-key a v1 baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from repro.lint.config import ConfigError, LintConfig, load_config
from repro.lint.engine import (
    Baseline,
    LintReport,
    _iter_py_files,
    lint_sources,
)
from repro.lint.rules import RULES, all_codes

__all__ = ["main"]

#: Default committed baseline, resolved relative to the working directory.
DEFAULT_BASELINE = ".lint-baseline.json"


def _parse_codes(value: "str | None") -> "list[str] | None":
    if not value:
        return None
    return [c.strip().upper() for c in value.split(",") if c.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Snapshot-discipline linter for the repro codebase: per-"
            "function rules (snapshot writes, unseeded np.random, "
            "accumulator bypasses) plus interprocedural dataflow rules "
            "(SNAP101/SHM001/LOCK001/QPROTO001) over the project "
            "call graph."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"baseline file of accepted findings (default: {DEFAULT_BASELINE} "
             "when it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept all current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--sarif", default=None, metavar="FILE",
        help="additionally write findings to FILE as SARIF 2.1.0",
    )
    parser.add_argument(
        "--config", default=None, metavar="PYPROJECT",
        help="pyproject.toml to read [tool.repro-lint] from (default: "
             "nearest pyproject.toml above the working directory)",
    )
    parser.add_argument(
        "--no-config", action="store_true",
        help="ignore pyproject configuration; built-in defaults only",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress per-finding output; summary + exit status only",
    )
    return parser


def _list_rules(out) -> None:
    from repro.lint.iprules import PROJECT_RULES

    for rule in list(RULES) + list(PROJECT_RULES):
        print(f"{rule.code}: {rule.description}", file=out)


def _load_config(args, out) -> "LintConfig | None":
    """Resolve configuration; ``None`` means a fatal config error."""
    if args.no_config:
        return LintConfig()
    from repro.lint.iprules import PROJECT_RULES

    known = frozenset(all_codes()) | {r.code for r in PROJECT_RULES}
    try:
        if args.config:
            return load_config(args.config, known_codes=known)
        return load_config(known_codes=known)
    except ConfigError as exc:
        print(f"error: {exc}", file=out)
        return None


def _collect(args, config: LintConfig, out):
    """Walk paths and lint; returns findings, or ``None`` on empty input."""
    files = _iter_py_files(args.paths)
    if not files:
        paths = ", ".join(args.paths)
        print(
            f"error: no Python files found under: {paths}", file=out
        )
        return None
    sources = {
        f.as_posix(): f.read_text(encoding="utf-8") for f in files
    }
    return lint_sources(
        sources,
        select=_parse_codes(args.select),
        ignore=_parse_codes(args.ignore),
        config=config,
    )


def _migrate_baseline(args, out) -> int:
    """``repro-lint migrate-baseline``: re-key the baseline file."""
    config = _load_config(args, out)
    if config is None:
        return 2
    baseline_path = Path(args.baseline or DEFAULT_BASELINE)
    if not baseline_path.exists():
        print(f"error: no baseline file at {baseline_path}", file=out)
        return 2
    old = Baseline.load(baseline_path)
    if old.version >= Baseline.VERSION:
        print(
            f"{baseline_path} already at schema version {old.version}; "
            "nothing to migrate",
            file=out,
        )
        return 0
    findings = _collect(args, config, out)
    if findings is None:
        return 2
    migrated, moved, stale = old.migrate(findings)
    migrated.save(baseline_path)
    print(
        f"migrated {baseline_path} to schema version {Baseline.VERSION}: "
        f"{moved} suppression(s) carried over, {stale} stale entr"
        f"{'y' if stale == 1 else 'ies'} dropped",
        file=out,
    )
    return 0


def _run(args, out) -> int:
    config = _load_config(args, out)
    if config is None:
        return 2
    findings = _collect(args, config, out)
    if findings is None:
        return 2

    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE)
    if args.write_baseline:
        Baseline.from_findings(findings).save(baseline_path)
        print(
            f"wrote {len(findings)} finding(s) to {baseline_path}", file=out
        )
        return 0

    if args.no_baseline:
        baseline = Baseline()
    else:
        baseline = Baseline.load(baseline_path)
    new, num_baselined = baseline.filter_new(findings)
    report = LintReport(findings=findings, new=new, num_baselined=num_baselined)

    if args.sarif:
        from repro.lint.sarif import write_sarif

        write_sarif(report.new, args.sarif)

    if args.format == "sarif":
        from repro.lint.sarif import to_sarif

        print(json.dumps(to_sarif(report.new), indent=2, sort_keys=True),
              file=out)
        return 0 if report.ok else 1

    if args.format == "json":
        payload = {
            "new": [
                {**vars(f), "call_path": list(f.call_path)}
                for f in report.new
            ],
            "num_findings": len(report.findings),
            "num_baselined": report.num_baselined,
            "num_warnings": len(report.warnings),
            "ok": report.ok,
        }
        print(json.dumps(payload, indent=2), file=out)
        return 0 if report.ok else 1

    if not args.quiet:
        for finding in report.new:
            print(finding.render(), file=out)
    by_code = Counter(f.code for f in report.new)
    breakdown = (
        " (" + ", ".join(f"{c}: {n}" for c, n in sorted(by_code.items())) + ")"
        if by_code else ""
    )
    warn = (
        f", {len(report.warnings)} warning(s)" if report.warnings else ""
    )
    print(
        f"{len(report.new)} new finding(s){breakdown}{warn}, "
        f"{report.num_baselined} baselined",
        file=out,
    )
    return 0 if report.ok else 1


def main(argv: "list[str] | None" = None, out=None) -> int:
    """Entry point; returns the process exit status."""
    out = out if out is not None else sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    migrate = bool(argv) and argv[0] == "migrate-baseline"
    if migrate:
        argv = argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        return int(exc.code or 0)
    if args.list_rules:
        _list_rules(out)
        return 0
    if migrate:
        return _migrate_baseline(args, out)
    return _run(args, out)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
