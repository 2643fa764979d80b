"""The ``python -m repro lint`` command.

Source-lints ``src/repro`` (or the given paths).  Exit status: 0 clean,
1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import analyze_sources, repo_root
from repro.analysis.findings import sort_findings
from repro.analysis.registry import RULES
from repro.analysis.report import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="palint: source static analysis")
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to source-lint "
             "(default: the repo's src/repro tree)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)")
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

    if args.list_rules:
        for code in sorted(RULES):
            rule = RULES[code]
            print(f"{code}  {rule.severity.name.ljust(8)} {rule.title}")
        return 0

    root = repo_root()
    findings = []
    for path in (args.paths or [root / "src" / "repro"]):
        if not path.exists():
            print(f"lint: no such path: {path}", file=sys.stderr)
            return 2
        findings.extend(analyze_sources(path, base=root))

    findings = sort_findings(findings)
    renderer = render_json if args.format == "json" else render_text
    sys.stdout.write(renderer(findings))
    return 1 if findings else 0

