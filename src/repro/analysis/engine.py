"""The analyzer: runs the registered rules over source files.

The engine guarantees determinism end to end: rules execute in code
order, files in sorted-path order, and findings come back deduplicated
and sorted on a stable key — the same inputs produce the same list,
byte for byte, on every run.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.analysis.context import load_source_file
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.registry import RULES

# Importing the rule module populates RULES.
import repro.analysis.source_rules  # noqa: F401  (registration import)


def repo_root() -> Path:
    """The checkout root (three levels above ``src/repro/analysis``)."""
    return Path(__file__).resolve().parents[3]


def analyze_sources(root: Path, base: Optional[Path] = None) -> List[Finding]:
    """Run every rule over a file or directory tree.

    ``base`` anchors the repo-relative display paths (defaults to the
    checkout root when ``root`` lives inside it).
    """
    root = Path(root)
    base = (base or repo_root()).resolve()
    paths = ([root] if root.is_file()
             else sorted(path for path in root.rglob("*.py")
                         if "__pycache__" not in path.parts))
    rules = [RULES[code] for code in sorted(RULES)]
    findings: List[Finding] = []
    for path in paths:
        path = path.resolve()
        try:
            display = path.relative_to(base).as_posix()
        except ValueError:
            display = path.as_posix()
        try:
            source = load_source_file(path, display)
        except SyntaxError as exc:
            findings.append(Finding(
                code="SRC100", severity=Severity.CRITICAL,
                subject=display, line=exc.lineno or 1,
                message=f"file does not parse: {exc.msg}",
                hint="fix the syntax error; no other source rule ran "
                     "on this file"))
            continue
        for rule in rules:
            findings.extend(rule.check(source))
    return sort_findings(findings)
