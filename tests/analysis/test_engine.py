"""Engine determinism: identical inputs, byte-identical output."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import RULES
from repro.analysis.engine import Analyzer, repo_root
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.registry import rule
from repro.analysis.report import render_json, render_text
from repro.core.policy import ImportSpec, SecurityPolicy
from repro.core.secrets import SecretKind, SecretSpec

from tests.analysis import fixtures

policy_names = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "epsilon"])
secret_names = st.sampled_from(
    ["API_KEY", "DB_PASSWORD", "TLS_CERT", "MODEL_KEY"])


@st.composite
def policy_sets(draw):
    """Small random policy sets: secrets, exports, imports, maybe argv."""
    names = draw(st.lists(policy_names, min_size=1, max_size=3,
                          unique=True))
    policies = {}
    for name in names:
        secrets = [
            SecretSpec(name=secret, kind=SecretKind.RANDOM,
                       export_to=tuple(draw(st.lists(
                           policy_names, max_size=2, unique=True))))
            for secret in draw(st.lists(secret_names, max_size=2,
                                        unique=True))]
        imports = [
            ImportSpec(from_policy=draw(policy_names),
                       secret_name=draw(secret_names))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))]
        services = []
        if draw(st.booleans()):
            command = ["python", "/app.py"]
            if draw(st.booleans()):
                command.append("--key=$$PALAEMON$API_KEY$$")
            services.append(fixtures.service(command=command))
        policies[name] = SecurityPolicy(
            name=name, services=services, secrets=secrets, imports=imports)
    return policies


class TestDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(policy_sets())
    def test_policy_lint_output_byte_identical(self, policies):
        findings = Analyzer().analyze_policy_set(policies)
        first = render_json(findings)
        second = render_json(Analyzer().analyze_policy_set(policies))
        assert first == second
        for finding in findings:
            assert finding.code in RULES
            declared = RULES[finding.code].severity
            # PAL001 is the one rule that escalates: a threshold of one
            # on a multi-member board is CRITICAL (docs/ANALYSIS.md).
            assert (finding.severity is declared
                    or (finding.code, finding.severity)
                    == ("PAL001", Severity.CRITICAL))

    def test_repo_lint_output_byte_identical(self):
        tree = repo_root() / "src" / "repro"
        first = render_json(Analyzer().analyze_sources(tree))
        second = render_json(Analyzer().analyze_sources(tree))
        assert first == second

    def test_findings_order_is_independent_of_input_order(self):
        policies = fixtures.cycle_set()
        reversed_policies = dict(reversed(list(policies.items())))
        assert (Analyzer().analyze_policy_set(policies)
                == Analyzer().analyze_policy_set(reversed_policies))

    def test_sort_findings_dedupes(self):
        finding = Finding(code="PAL001", severity=Severity.ERROR,
                          subject="p", message="dup", line=None)
        assert sort_findings([finding, finding]) == [finding]


class TestReporters:
    def test_clean_text_report(self):
        assert render_text([]) == "palint: clean (0 findings)\n"

    def test_text_report_includes_hint_and_summary(self):
        finding = Finding(code="PAL001", severity=Severity.CRITICAL,
                          subject="weak", message="too weak",
                          hint="raise it")
        text = render_text([finding])
        assert "weak: CRITICAL [PAL001] too weak" in text
        assert "hint: raise it" in text
        assert "palint: 1 critical" in text

    def test_json_report_shape(self):
        import json
        finding = Finding(code="SRC102", severity=Severity.WARNING,
                          subject="src/x.py", message="bare", line=3)
        document = json.loads(render_json([finding]))
        assert document["summary"] == {
            "total": 1, "by_severity": {"WARNING": 1}}
        assert document["findings"][0]["code"] == "SRC102"
        assert document["findings"][0]["line"] == 3


class TestRuleTable:
    @pytest.mark.parametrize("code, scope", [("PAL001", "policy"),
                                             ("PAL999", "nowhere")])
    def test_duplicate_code_and_unknown_scope_rejected(self, code, scope):
        before = dict(RULES)
        with pytest.raises(ValueError):
            rule(code, "bad", scope=scope, severity=Severity.INFO)(
                lambda *_: ())
        assert RULES == before
