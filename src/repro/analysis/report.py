"""Reporters: human-readable text and machine-readable JSON.

Neither embeds timestamps, absolute paths, or environment details —
output is a pure function of the findings, so CI can diff it and the
test suite can assert byte-identical reruns.
"""

from __future__ import annotations

import json
from typing import Iterable, List

from repro.analysis.findings import Finding, Severity

_SEVERITY_TAGS = {
    Severity.INFO: "info",
    Severity.WARNING: "warning",
    Severity.ERROR: "error",
    Severity.CRITICAL: "CRITICAL",
}


def render_text(findings: Iterable[Finding]) -> str:
    """One line per finding plus a summary, sorted and stable."""
    findings = list(findings)
    lines: List[str] = []
    for finding in findings:
        tag = _SEVERITY_TAGS[finding.severity]
        lines.append(
            f"{finding.location}: {tag} [{finding.code}] "
            f"{finding.message}")
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    lines.append(_summary_line(findings))
    return "\n".join(lines) + "\n"


def render_json(findings: Iterable[Finding]) -> str:
    """Stable JSON: sorted keys, sorted findings, trailing newline."""
    findings = list(findings)
    document = {
        "findings": [finding.to_dict() for finding in findings],
        "summary": {
            "total": len(findings),
            "by_severity": {
                severity.name: count
                for severity in Severity
                if (count := sum(1 for finding in findings
                                 if finding.severity is severity))},
        },
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _summary_line(findings: List[Finding]) -> str:
    if not findings:
        return "palint: clean (0 findings)"
    counts = []
    for severity in (Severity.CRITICAL, Severity.ERROR, Severity.WARNING,
                     Severity.INFO):
        count = sum(1 for finding in findings
                    if finding.severity is severity)
        if count:
            counts.append(f"{count} {severity.name.lower()}")
    return f"palint: {', '.join(counts)}"
