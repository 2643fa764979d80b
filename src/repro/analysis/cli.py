"""The ``python -m repro lint`` command.

Source-lints ``src/repro`` (or the given paths) and policy-lints any
yamlish documents passed via ``--policy``.  Exit status: 0 clean, 1
findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import Analyzer, repo_root
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.registry import RULES
from repro.analysis.report import render_json, render_text
from repro.core import yamlish
from repro.core.policy import SecurityPolicy
from repro.errors import PolicyValidationError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="palint: policy + source static analysis")
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to source-lint "
             "(default: the repo's src/repro tree)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--policy", action="append", default=[], type=Path,
        metavar="FILE",
        help="also lint a yamlish policy document (repeatable)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    return parser


def run_lint(argv: Optional[List[str]] = None) -> int:
    try:
        return _run_lint(argv)
    except BrokenPipeError:
        # Downstream closed early (lint | head); not a lint failure, but
        # the pipe truncated the report, so don't claim a clean exit.
        sys.stderr.close()
        return 1


def _run_lint(argv: Optional[List[str]]) -> int:
    args = build_parser().parse_args(argv)
    analyzer = Analyzer()

    if args.list_rules:
        for code in sorted(RULES):
            rule = RULES[code]
            print(f"{code}  {rule.severity.name.ljust(8)} "
                  f"[{rule.scope}] {rule.title}")
        return 0

    root = repo_root()
    findings = []
    for path in (args.paths or [root / "src" / "repro"]):
        if not path.exists():
            print(f"lint: no such path: {path}", file=sys.stderr)
            return 2
        findings.extend(analyzer.analyze_sources(path, base=root))

    for policy_path in args.policy:
        findings.extend(_lint_policy_file(analyzer, policy_path))

    findings = sort_findings(findings)
    renderer = render_json if args.format == "json" else render_text
    sys.stdout.write(renderer(findings))
    return 1 if findings else 0


def _lint_policy_file(analyzer: Analyzer, path: Path) -> list:
    display = path.name
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [Finding(code="PAL000", severity=Severity.CRITICAL,
                        subject=display,
                        message=f"cannot read policy file: {exc}",
                        hint="check the path")]
    try:
        document = yamlish.loads(text)
    except PolicyValidationError as exc:
        return [Finding(code="PAL000", severity=Severity.CRITICAL,
                        subject=display,
                        message=f"policy document does not parse: {exc}",
                        hint="fix the document before linting deeper")]
    mapping = document if isinstance(document, dict) else {}
    name = mapping.get("name")
    name = name if isinstance(name, str) and name else display
    findings = analyzer.analyze_document(name, mapping)
    try:
        policy = SecurityPolicy.from_dict(document)
    except PolicyValidationError as exc:
        findings.append(Finding(
            code="PAL000", severity=Severity.CRITICAL, subject=name,
            message=f"policy does not validate: {exc}",
            hint="from_dict/validate rejected the document"))
        return findings
    findings.extend(analyzer.analyze_policy_set({policy.name: policy}))
    return findings
