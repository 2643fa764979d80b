"""The analyzer: runs registered rules over policies, documents, sources.

The engine guarantees determinism end to end: rules execute in code
order, files in sorted-path order, and findings come back deduplicated
and sorted on a stable key — the same inputs produce the same list,
byte for byte, on every run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.analysis.context import (
    PolicySetContext,
    SourceFile,
    load_source_file,
)
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.registry import DEFAULT_REGISTRY, RuleRegistry
from repro.analysis.suppress import is_inline_suppressed
from repro.core.policy import SecurityPolicy

# Importing the rule modules populates DEFAULT_REGISTRY.
import repro.analysis.document_rules  # noqa: F401  (registration import)
import repro.analysis.policy_rules  # noqa: F401  (registration import)
import repro.analysis.source_rules  # noqa: F401  (registration import)


def repo_root() -> Path:
    """The checkout root (three levels above ``src/repro/analysis``)."""
    return Path(__file__).resolve().parents[3]


class Analyzer:
    """Runs a rule registry over analysis inputs."""

    def __init__(self, registry: Optional[RuleRegistry] = None) -> None:
        self.registry = registry or DEFAULT_REGISTRY

    # -- policy analysis ----------------------------------------------------

    def analyze_policy_set(
            self,
            policies: "Dict[str, SecurityPolicy] | Iterable[SecurityPolicy]",
            documents: Optional[Dict[str, dict]] = None,
            mre_allowlist: Optional[FrozenSet[bytes]] = None,
            codes: Optional[Iterable[str]] = None) -> List[Finding]:
        """Run policy + document rules over a set of policies."""
        if not isinstance(policies, dict):
            policies = {policy.name: policy for policy in policies}
        ctx = PolicySetContext(policies=dict(policies),
                               documents=dict(documents or {}),
                               mre_allowlist=mre_allowlist)
        findings: List[Finding] = []
        for rule in self.registry.rules(scope="policy", codes=codes):
            for name in ctx.names():
                findings.extend(rule.check(ctx.policies[name], ctx))
        for rule in self.registry.rules(scope="policyset", codes=codes):
            findings.extend(rule.check(ctx))
        for rule in self.registry.rules(scope="document", codes=codes):
            for name in sorted(ctx.documents):
                findings.extend(rule.check(name, ctx.documents[name]))
        return sort_findings(findings)

    def analyze_document(self, name: str, document: dict,
                         codes: Optional[Iterable[str]] = None,
                         ) -> List[Finding]:
        """Document rules only — usable before parsing even succeeds."""
        findings: List[Finding] = []
        for rule in self.registry.rules(scope="document", codes=codes):
            findings.extend(rule.check(name, document))
        return sort_findings(findings)

    # -- source analysis ----------------------------------------------------

    def analyze_sources(self, root: Path,
                        codes: Optional[Iterable[str]] = None,
                        base: Optional[Path] = None) -> List[Finding]:
        """Run source rules over a file or directory tree.

        ``base`` anchors the repo-relative display paths (defaults to the
        checkout root when ``root`` lives inside it).
        """
        root = Path(root)
        base = base or repo_root()
        paths = ([root] if root.is_file()
                 else sorted(path for path in root.rglob("*.py")
                             if "__pycache__" not in path.parts))
        findings: List[Finding] = []
        rules = self.registry.rules(scope="source", codes=codes)
        for path in paths:
            try:
                source = load_source_file(path, repo_root=base)
            except SyntaxError as exc:
                findings.append(_syntax_error_finding(path, base, exc))
                continue
            for rule in rules:
                for finding in rule.check(source):
                    if is_inline_suppressed(
                            finding,
                            source.line_text(finding.line or 0)):
                        continue
                    findings.append(finding)
        return sort_findings(findings)

    def analyze_repo(self, root: Optional[Path] = None,
                     codes: Optional[Iterable[str]] = None) -> List[Finding]:
        """Source-lint the whole ``src/repro`` tree of a checkout."""
        root = Path(root) if root is not None else repo_root()
        return self.analyze_sources(root / "src" / "repro",
                                    codes=codes, base=root)


def _syntax_error_finding(path: Path, base: Path,
                          exc: SyntaxError) -> Finding:
    try:
        display = path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        display = path.as_posix()
    return Finding(
        code="SRC100", severity=Severity.CRITICAL, subject=display,
        line=exc.lineno or 1,
        message=f"file does not parse: {exc.msg}",
        hint="fix the syntax error; no other source rule ran on this file")


def max_severity(findings: Iterable[Finding]) -> Optional[Severity]:
    severities = [finding.severity for finding in findings]
    return max(severities) if severities else None
