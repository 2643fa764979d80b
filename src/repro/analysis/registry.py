"""The rule table: every lint rule, addressable by code.

Rules declare a code (``PAL001``, ``DOC001``, ``SRC101``, ...), a scope
that decides what input their check function receives, a default
severity, and the check itself.  :func:`rules` returns them in code
order so analysis output never depends on import order.

Scopes
------
``policy``
    ``check(policy, ctx)`` — one parsed :class:`SecurityPolicy` at a
    time, with the surrounding :class:`PolicySetContext` for reference.
``policyset``
    ``check(ctx)`` — cross-policy rules (cycles, dangling imports).
``document``
    ``check(name, document)`` — the raw yamlish mapping, before parsing
    fills in defaults.
``source``
    ``check(source)`` — one parsed :class:`SourceFile` (display path,
    module name, AST).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.analysis.findings import Severity

SCOPES = ("policy", "policyset", "document", "source")


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    code: str
    title: str
    scope: str
    severity: Severity
    check: Callable = field(compare=False)

    def __post_init__(self) -> None:
        if self.scope not in SCOPES:
            raise ValueError(f"rule {self.code}: unknown scope {self.scope!r}")


#: Every rule, keyed by code; the stock rule modules fill it on import.
RULES: Dict[str, Rule] = {}


def rules(scope: str) -> Tuple[Rule, ...]:
    """The rules of one scope, in code order."""
    return tuple(RULES[code] for code in sorted(RULES)
                 if RULES[code].scope == scope)


def rule(code: str, title: str, scope: str, severity: Severity):
    """Decorator: register a check function as a rule."""

    def decorate(check: Callable) -> Callable:
        new = Rule(code=code, title=title, scope=scope, severity=severity,
                   check=check)
        if code in RULES:
            raise ValueError(f"duplicate rule code {code!r}")
        RULES[code] = new
        return check

    return decorate
