"""The finding model: what every lint rule produces.

A :class:`Finding` is one defect at one location — a rule code, a
severity, the subject (a policy name or a repo-relative file path), an
optional line, the human message, and a fix hint.  Findings order on a
stable key so reports are byte-identical across runs regardless of rule
execution order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class Severity(enum.IntEnum):
    """How bad a finding is; ordered so comparisons read naturally."""

    INFO = 10
    WARNING = 20
    ERROR = 30
    #: CRITICAL findings are rejected outright by the service gate
    #: (``create_policy(..., analyze=True)``) before board submission.
    CRITICAL = 40


@dataclass(frozen=True)
class Finding:
    """One defect reported by one rule at one location."""

    code: str
    severity: Severity
    #: Policy name (policy/document rules) or repo-relative posix path
    #: (source rules).
    subject: str
    message: str
    line: Optional[int] = None
    hint: str = ""

    @property
    def location(self) -> str:
        if self.line is None:
            return self.subject
        return f"{self.subject}:{self.line}"

    def sort_key(self) -> Tuple[str, int, str, str]:
        return (self.subject, self.line or 0, self.code, self.message)

    def to_dict(self) -> dict:
        document = {
            "code": self.code,
            "severity": self.severity.name,
            "subject": self.subject,
            "message": self.message,
        }
        if self.line is not None:
            document["line"] = self.line
        if self.hint:
            document["hint"] = self.hint
        return document


def sort_findings(findings) -> list:
    """Deterministic ordering: subject, line, code, message (deduped)."""
    return sorted(set(findings), key=Finding.sort_key)
