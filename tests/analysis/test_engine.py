"""Engine determinism: identical inputs, byte-identical output."""

import json

import pytest

from repro.analysis import RULES
from repro.analysis.engine import analyze_sources, repo_root
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.registry import rule
from repro.analysis.report import render_json, render_text


class TestDeterminism:
    def test_repo_lint_output_byte_identical(self):
        tree = repo_root() / "src" / "repro"
        first = render_json(analyze_sources(tree))
        second = render_json(analyze_sources(tree))
        assert first == second

    def test_findings_order_is_independent_of_input_order(self):
        findings = [
            Finding(code="SRC102", severity=Severity.WARNING,
                    subject="src/b.py", message="bare", line=7),
            Finding(code="SRC101", severity=Severity.ERROR,
                    subject="src/b.py", message="clock", line=7),
            Finding(code="SRC105", severity=Severity.ERROR,
                    subject="src/a.py", message="broad", line=30),
        ]
        assert (sort_findings(findings)
                == sort_findings(list(reversed(findings))))

    def test_sort_findings_dedupes(self):
        finding = Finding(code="SRC102", severity=Severity.WARNING,
                          subject="src/x.py", message="dup", line=3)
        assert sort_findings([finding, finding]) == [finding]


class TestReporters:
    def test_clean_text_report(self):
        assert render_text([]) == "palint: clean (0 findings)\n"

    def test_text_report_includes_hint_and_summary(self):
        finding = Finding(code="SRC100", severity=Severity.CRITICAL,
                          subject="src/x.py", message="does not parse",
                          line=2, hint="fix it")
        text = render_text([finding])
        assert "src/x.py:2: CRITICAL [SRC100] does not parse" in text
        assert "hint: fix it" in text
        assert "palint: 1 critical" in text

    def test_json_report_shape(self):
        finding = Finding(code="SRC102", severity=Severity.WARNING,
                          subject="src/x.py", message="bare", line=3)
        document = json.loads(render_json([finding]))
        assert document["summary"] == {
            "total": 1, "by_severity": {"WARNING": 1}}
        assert document["findings"][0]["code"] == "SRC102"
        assert document["findings"][0]["line"] == 3


class TestRuleTable:
    def test_duplicate_code_rejected(self):
        before = dict(RULES)
        with pytest.raises(ValueError):
            rule("SRC101", "bad", severity=Severity.WARNING)(lambda *_: ())
        assert RULES == before
