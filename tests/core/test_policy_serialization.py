"""Tests for policy serialization (to_dict) round trips."""

import pytest

from repro.core.policy import (
    BoardSpec,
    ImportSpec,
    PolicyBoardMember,
    SecurityPolicy,
    ServiceSpec,
    VolumeImportSpec,
    VolumeSpec,
)
from repro.core.secrets import SecretKind, SecretSpec
from repro.crypto.certificates import self_signed_certificate
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair
from repro.errors import PolicyValidationError


def rich_policy():
    """A policy exercising every serializable feature."""
    rng = DeterministicRandom(b"serialize")
    keys = KeyPair.generate(rng.fork(b"alice"), bits=512)
    member = PolicyBoardMember(
        name="alice", certificate=self_signed_certificate("alice", keys),
        approval_endpoint="ep-alice", veto=True)
    return SecurityPolicy(
        name="full_policy",
        services=[ServiceSpec(
            name="app", image_name="img",
            command=["app", "--flag"],
            environment={"MODE": "prod"},
            mrenclaves=[b"\x01" * 32, b"\x02" * 32],
            platforms=[b"\x0a" * 16],
            pwd="/work",
            injection_files={"/etc/a.conf": b"k=$$PALAEMON$K$$"},
            strict_mode=True)],
        secrets=[
            SecretSpec(name="K", kind=SecretKind.RANDOM, size=48,
                       export_to=("other",)),
            SecretSpec(name="PW", kind=SecretKind.EXPLICIT, value=b"hunter2"),
            SecretSpec(name="TLS", kind=SecretKind.X509,
                       common_name="a.example.com"),
        ],
        volumes=[VolumeSpec(name="out", path="/out",
                            export_to="output_policy")],
        imports=[ImportSpec(from_policy="upstream", secret_name="UP",
                            local_name="LOCAL_UP")],
        volume_imports=[VolumeImportSpec(from_policy="producer",
                                         volume_name="shared")],
        board=BoardSpec(members=(member,), threshold=1),
    )


class TestToDict:
    def test_round_trip_preserves_everything(self):
        original = rich_policy()
        document, certificates = original.to_dict()
        restored = SecurityPolicy.from_dict(
            document, certificate_registry=certificates)

        assert restored.name == original.name
        service = restored.service("app")
        assert service.mrenclaves == original.service("app").mrenclaves
        assert service.platforms == original.service("app").platforms
        assert service.command == ["app", "--flag"]
        assert service.environment == {"MODE": "prod"}
        assert service.pwd == "/work"
        assert service.strict_mode
        assert service.injection_files == {"/etc/a.conf":
                                           b"k=$$PALAEMON$K$$"}
        assert restored.secret_spec("K").export_to == ("other",)
        assert restored.secret_spec("PW").value == b"hunter2"
        assert restored.secret_spec("TLS").common_name == "a.example.com"
        assert restored.volumes[0].export_to == "output_policy"
        assert restored.imports[0].bound_name == "LOCAL_UP"
        assert restored.volume_imports[0].volume_name == "shared"
        assert restored.board is not None
        assert restored.board.member("alice").veto
        assert (restored.board.member("alice").certificate.fingerprint()
                == original.board.member("alice").certificate.fingerprint())

    def test_minimal_policy_round_trip(self):
        policy = SecurityPolicy(
            name="tiny",
            services=[ServiceSpec(name="s", image_name="i",
                                  mrenclaves=[b"\x03" * 32])])
        document, certificates = policy.to_dict()
        assert certificates == {}
        restored = SecurityPolicy.from_dict(document)
        assert restored.name == "tiny"
        assert restored.service("s").mrenclaves == [b"\x03" * 32]

    def test_document_is_plain_data(self):
        """The document must be JSON-ish: dicts, lists, strings, ints."""
        document, _certs = rich_policy().to_dict()

        def check(value):
            if isinstance(value, dict):
                for key, item in value.items():
                    assert isinstance(key, str)
                    check(item)
            elif isinstance(value, list):
                for item in value:
                    check(item)
            else:
                assert value is None or isinstance(value,
                                                   (str, int, float, bool))

        check(document)

    def test_round_trip_validates(self):
        document, certificates = rich_policy().to_dict()
        restored = SecurityPolicy.from_dict(
            document, certificate_registry=certificates)
        restored.validate()


class TestImplicitThreshold:
    """A missing board threshold defaults to unanimity — explicitly."""

    def board_document(self, member_count=3):
        rng = DeterministicRandom(b"implicit-threshold")
        certificates = {}
        members = []
        for index in range(member_count):
            name = f"m{index}"
            keys = KeyPair.generate(rng.fork(name.encode()), bits=512)
            certificates[f"{name}-cert"] = self_signed_certificate(name,
                                                                   keys)
            members.append({"name": name, "certificate": f"{name}-cert",
                            "approval_endpoint": f"ep-{name}"})
        return {"name": "implicit", "board": {"members": members}}, \
            certificates

    def test_missing_threshold_defaults_to_unanimity(self):
        document, certificates = self.board_document(member_count=3)
        policy = SecurityPolicy.from_dict(
            document, certificate_registry=certificates)
        assert policy.board.threshold == 3

    def test_round_trip_makes_the_default_explicit(self):
        document, certificates = self.board_document(member_count=3)
        assert "threshold" not in document["board"]
        policy = SecurityPolicy.from_dict(
            document, certificate_registry=certificates)
        serialized, _certs = policy.to_dict()
        assert serialized["board"]["threshold"] == 3

    def test_lint_warns_on_omitted_threshold(self):
        from repro.analysis.engine import Analyzer

        document, _certs = self.board_document(member_count=2)
        findings = Analyzer().analyze_document("implicit", document)
        assert "DOC001" in {finding.code for finding in findings}

    def test_lint_silent_when_threshold_stated(self):
        from repro.analysis.engine import Analyzer

        document, _certs = self.board_document(member_count=2)
        document["board"]["threshold"] = 2
        findings = Analyzer().analyze_document("implicit", document)
        assert "DOC001" not in {finding.code for finding in findings}


class TestTypedParseErrors:
    """Malformed documents raise PolicyValidationError, never a bare
    AttributeError/ValueError/KeyError."""

    @staticmethod
    def document(**service):
        return {"name": "p", "services": [dict({"name": "s"}, **service)]}

    def test_all_digit_mrenclave_is_a_validation_error(self):
        # An unquoted all-digit hex string parses as an int.
        with pytest.raises(PolicyValidationError, match="not a hex string"):
            SecurityPolicy.from_dict(self.document(mrenclaves=[1234]))

    def test_bad_hex_is_a_validation_error(self):
        with pytest.raises(PolicyValidationError, match="not valid hex"):
            SecurityPolicy.from_dict(self.document(mrenclaves=["zz01"]))

    def test_service_without_name_is_a_validation_error(self):
        with pytest.raises(PolicyValidationError, match="needs a name"):
            SecurityPolicy.from_dict(
                {"name": "p", "services": [{"image_name": "img"}]})


class TestBoardDigest:
    """The digest a board approves covers the whole policy document."""

    @staticmethod
    def digest(policy):
        from repro.core.service import _policy_digest

        return _policy_digest(policy)

    def test_export_list_changes_the_digest(self):
        exported, other = rich_policy(), rich_policy()
        other.secrets[0] = SecretSpec(name="K", kind=SecretKind.RANDOM,
                                      size=48, export_to=("attacker",))
        assert self.digest(exported) != self.digest(other)

    def test_board_imports_and_injection_files_change_the_digest(self):
        base = self.digest(rich_policy())
        no_board = rich_policy()
        no_board.board = None
        no_imports = rich_policy()
        no_imports.imports = []
        new_file = rich_policy()
        new_file.services[0].injection_files["/etc/b.conf"] = b"x"
        assert len({base, self.digest(no_board), self.digest(no_imports),
                    self.digest(new_file)}) == 4

    def test_digest_is_stable_and_omits_explicit_secret_values(self):
        policy, relabeled = rich_policy(), rich_policy()
        relabeled.secrets[1] = SecretSpec(name="PW", kind=SecretKind.EXPLICIT,
                                          value=b"other-password")
        assert self.digest(policy) == self.digest(rich_policy())
        assert self.digest(policy) == self.digest(relabeled)
