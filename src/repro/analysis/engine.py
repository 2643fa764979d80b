"""The analyzer: runs registered rules over policies, documents, sources.

The engine guarantees determinism end to end: rules execute in code
order, files in sorted-path order, and findings come back deduplicated
and sorted on a stable key — the same inputs produce the same list,
byte for byte, on every run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.analysis.context import PolicySetContext, load_source_file
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.registry import rules
from repro.core.policy import SecurityPolicy

# Importing the rule modules populates RULES.
import repro.analysis.document_rules  # noqa: F401  (registration import)
import repro.analysis.policy_rules  # noqa: F401  (registration import)
import repro.analysis.source_rules  # noqa: F401  (registration import)


def repo_root() -> Path:
    """The checkout root (three levels above ``src/repro/analysis``)."""
    return Path(__file__).resolve().parents[3]


class Analyzer:
    """Runs the registered rules over analysis inputs."""

    # -- policy analysis ----------------------------------------------------

    def analyze_policy_set(
            self,
            policies: "Dict[str, SecurityPolicy] | Iterable[SecurityPolicy]",
            ) -> List[Finding]:
        """Run the policy and policy-set rules over a set of policies."""
        if not isinstance(policies, dict):
            policies = {policy.name: policy for policy in policies}
        ctx = PolicySetContext(policies=dict(policies))
        findings: List[Finding] = []
        for rule in rules("policy"):
            for name in ctx.names():
                findings.extend(rule.check(ctx.policies[name], ctx))
        for rule in rules("policyset"):
            findings.extend(rule.check(ctx))
        return sort_findings(findings)

    def analyze_document(self, name: str, document: dict) -> List[Finding]:
        """Document rules only — usable before parsing even succeeds."""
        findings: List[Finding] = []
        for rule in rules("document"):
            findings.extend(rule.check(name, document))
        return sort_findings(findings)

    # -- source analysis ----------------------------------------------------

    def analyze_sources(self, root: Path,
                        base: Optional[Path] = None) -> List[Finding]:
        """Run source rules over a file or directory tree.

        ``base`` anchors the repo-relative display paths (defaults to the
        checkout root when ``root`` lives inside it).
        """
        root = Path(root)
        base = (base or repo_root()).resolve()
        paths = ([root] if root.is_file()
                 else sorted(path for path in root.rglob("*.py")
                             if "__pycache__" not in path.parts))
        findings: List[Finding] = []
        source_rules = rules("source")
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
            for rule in source_rules:
                findings.extend(rule.check(source))
        return sort_findings(findings)
