"""Policy/document rule tests: each seeded defect hits exactly one code."""

import pytest

from repro.analysis.engine import Analyzer
from repro.analysis.findings import Severity
from repro.core.policy import SecurityPolicy, VolumeImportSpec, VolumeSpec
from repro.core.secrets import SecretKind, SecretSpec

from tests.analysis import fixtures


def analyze(policies):
    return Analyzer().analyze_policy_set(policies)


class TestSeededDefects:
    """The acceptance fixtures: one defect, exactly one rule code."""

    @pytest.mark.parametrize("expected_code", sorted(fixtures.SEEDED_DEFECTS))
    def test_exactly_one_code_fires(self, expected_code):
        policies = fixtures.SEEDED_DEFECTS[expected_code]()
        findings = analyze(policies)
        assert findings, f"{expected_code} fixture produced no findings"
        assert {finding.code for finding in findings} == {expected_code}

    def test_clean_policy_produces_no_findings(self):
        assert analyze({"clean": fixtures.clean_policy()}) == []

    def test_weak_quorum_is_critical(self):
        (finding,) = analyze(fixtures.weak_quorum_set())
        assert finding.severity is Severity.CRITICAL
        assert "f+1" in finding.message

    def test_argv_secret_is_critical_and_names_proc(self):
        (finding,) = analyze(fixtures.argv_secret_set())
        assert finding.severity is Severity.CRITICAL
        assert "/proc" in finding.message

    def test_cycle_reported_once(self):
        findings = analyze(fixtures.cycle_set())
        assert len(findings) == 1
        assert "cycle_consumer -> cycle_producer" in findings[0].message \
            or "cycle_producer -> cycle_consumer" in findings[0].message


class TestBoardRules:
    def test_majority_threshold_passes(self):
        policy = fixtures.clean_policy()
        policy.board = fixtures.board(member_count=5, threshold=3)
        assert analyze({policy.name: policy}) == []

    def test_minority_threshold_is_error(self):
        policy = fixtures.clean_policy()
        policy.board = fixtures.board(member_count=5, threshold=2)
        (finding,) = analyze({policy.name: policy})
        assert finding.code == "PAL001"
        assert finding.severity is Severity.ERROR

    def test_vetoless_board_warns(self):
        policy = fixtures.clean_policy()
        policy.board = fixtures.board(member_count=3, threshold=2,
                                      veto_members=())
        (finding,) = analyze({policy.name: policy})
        assert finding.code == "PAL002"
        assert finding.severity is Severity.WARNING

    def test_single_member_board_is_quiet(self):
        policy = fixtures.clean_policy()
        policy.board = fixtures.board(member_count=1, threshold=1,
                                      veto_members=())
        assert analyze({policy.name: policy}) == []


class TestSecretFlowRules:
    def test_unused_secret_warns(self):
        policy = SecurityPolicy(
            name="hoarder",
            services=[fixtures.service()],
            secrets=[SecretSpec(name="FORGOTTEN", kind=SecretKind.RANDOM)])
        (finding,) = analyze({policy.name: policy})
        assert finding.code == "PAL014"

    def test_exported_secret_is_not_unused(self):
        exporter = SecurityPolicy(
            name="exporter",
            secrets=[SecretSpec(name="SHARED", kind=SecretKind.RANDOM,
                                export_to=("importer",))])
        importer = SecurityPolicy(
            name="importer",
            imports=[fixtures.ImportSpec(from_policy="exporter",
                                         secret_name="SHARED")])
        assert analyze({"exporter": exporter, "importer": importer}) == []

    def test_unused_export_warns(self):
        exporter = SecurityPolicy(
            name="exporter",
            secrets=[SecretSpec(name="SHARED", kind=SecretKind.RANDOM,
                                export_to=("importer",))])
        importer = SecurityPolicy(name="importer")
        findings = analyze({"exporter": exporter, "importer": importer})
        assert [finding.code for finding in findings] == ["PAL013"]

    def test_export_to_unknown_policy_warns(self):
        exporter = SecurityPolicy(
            name="exporter",
            secrets=[SecretSpec(name="SHARED", kind=SecretKind.RANDOM,
                                export_to=("ghost",))])
        findings = analyze({"exporter": exporter})
        assert [finding.code for finding in findings] == ["PAL013"]
        assert "unknown policy" in findings[0].message

    def test_import_without_export_is_dangling(self):
        source = SecurityPolicy(
            name="source",
            secrets=[SecretSpec(name="KEPT", kind=SecretKind.RANDOM,
                                export_to=())])
        taker = SecurityPolicy(
            name="taker",
            imports=[fixtures.ImportSpec(from_policy="source",
                                         secret_name="KEPT")])
        codes = {finding.code
                 for finding in analyze({"source": source, "taker": taker})}
        assert "PAL010" in codes

    def test_undefined_reference_is_error(self):
        policy = SecurityPolicy(
            name="typo",
            services=[fixtures.service(injection_files={
                "/etc/a.conf": b"k=$$PALAEMON$MISPELLED$$"})],
            secrets=[SecretSpec(name="SPELLED", kind=SecretKind.RANDOM,
                                export_to=("typo",))])
        codes = [finding.code for finding in analyze({policy.name: policy})]
        assert "PAL015" in codes

    def test_dangling_volume_import(self):
        taker = SecurityPolicy(
            name="taker",
            volume_imports=[VolumeImportSpec(from_policy="producer",
                                             volume_name="out")])
        producer = SecurityPolicy(
            name="producer",
            volumes=[VolumeSpec(name="out", path="/out",
                                export_to="someone_else")])
        findings = analyze({"taker": taker, "producer": producer})
        assert [finding.code for finding in findings] == ["PAL012"]


class TestEnvironmentRules:
    @pytest.mark.parametrize("key,value", [
        ("SCONE_MODE", "sim"), ("SCONE_MODE", "debug"),
        ("SGX_DEBUG", "1"), ("SCONE_ALLOW_DEBUG", "true"),
    ])
    def test_debug_environment_is_critical(self, key, value):
        policy = SecurityPolicy(
            name="debuggable",
            services=[fixtures.service(environment={key: value})])
        (finding,) = analyze({policy.name: policy})
        assert finding.code == "PAL021"
        assert finding.severity is Severity.CRITICAL

    def test_hardware_mode_is_quiet(self):
        policy = SecurityPolicy(
            name="hardware",
            services=[fixtures.service(
                environment={"SCONE_MODE": "hw", "SGX_DEBUG": "0"})])
        assert analyze({policy.name: policy}) == []


class TestAllowlistRules:
    def test_no_allowlist_no_check(self):
        policy = SecurityPolicy(name="drifted",
                                services=[fixtures.service()])
        assert analyze({policy.name: policy}) == []

    def test_stale_permitted_combination_warns(self):
        policy = SecurityPolicy(
            name="stale",
            services=[fixtures.service()],
            permitted_combinations=[(b"\x09" * 32, b"tag")])
        findings = analyze({policy.name: policy})
        assert [finding.code for finding in findings] == ["PAL031"]


class TestDocumentRules:
    def test_board_without_threshold_warns(self):
        findings = Analyzer().analyze_document(
            "doc", {"name": "doc",
                    "board": {"members": [{"name": "a"}, {"name": "b"}]}})
        assert "DOC001" in {finding.code for finding in findings}

    def test_unknown_keys_warn(self):
        findings = Analyzer().analyze_document(
            "doc", {"name": "doc", "sevices": [],
                    "board": {"members": [], "treshold": 1}})
        doc2 = [finding for finding in findings if finding.code == "DOC002"]
        assert len(doc2) == 2

    def test_clean_document_is_quiet(self):
        findings = Analyzer().analyze_document(
            "doc", {"name": "doc", "services": [],
                    "board": {"members": [], "threshold": 1}})
        assert findings == []
