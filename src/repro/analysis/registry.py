"""The rule table: every lint rule, addressable by code.

Rules declare a code (``SRC101``, ...), a title, a default severity, and
the check itself: ``check(source)`` receives one parsed
:class:`~repro.analysis.context.SourceFile` (display path, module name,
AST). The engine runs them in code order, so analysis output never
depends on import order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.analysis.findings import Severity


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    code: str
    title: str
    severity: Severity
    check: Callable = field(compare=False)


#: Every rule, keyed by code; ``source_rules`` fills it on import.
RULES: Dict[str, Rule] = {}


def rule(code: str, title: str, severity: Severity):
    """Decorator: register a check function as a rule."""

    def decorate(check: Callable) -> Callable:
        if code in RULES:
            raise ValueError(f"duplicate rule code {code!r}")
        RULES[code] = Rule(code=code, title=title, severity=severity,
                           check=check)
        return check

    return decorate
