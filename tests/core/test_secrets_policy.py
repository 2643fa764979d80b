"""Tests for secret specs/materialization and the policy model."""

import pytest

from repro.core.policy import (
    BoardSpec,
    ImportSpec,
    PolicyBoardMember,
    SecurityPolicy,
    ServiceSpec,
)
from repro.core.secrets import (
    SecretKind,
    SecretSpec,
    materialize,
    materialize_all,
)
from repro.crypto.certificates import self_signed_certificate
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair
from repro.errors import PolicyValidationError


@pytest.fixture()
def rng():
    return DeterministicRandom(b"secrets-tests")


class TestSecretSpec:
    def test_explicit_requires_value(self):
        with pytest.raises(PolicyValidationError, match="no value"):
            SecretSpec(name="K", kind=SecretKind.EXPLICIT).validate()

    def test_random_size_bounds(self):
        with pytest.raises(PolicyValidationError):
            SecretSpec(name="K", kind=SecretKind.RANDOM, size=0).validate()
        with pytest.raises(PolicyValidationError):
            SecretSpec(name="K", kind=SecretKind.RANDOM, size=5000).validate()

    def test_x509_requires_common_name(self):
        with pytest.raises(PolicyValidationError, match="common_name"):
            SecretSpec(name="K", kind=SecretKind.X509).validate()

    def test_lowercase_name_rejected(self):
        with pytest.raises(PolicyValidationError, match="upper-case"):
            SecretSpec(name="lower", kind=SecretKind.RANDOM).validate()

    def test_bad_characters_rejected(self):
        with pytest.raises(PolicyValidationError):
            SecretSpec(name="BAD-NAME", kind=SecretKind.RANDOM).validate()

    def test_from_dict(self):
        spec = SecretSpec.from_dict({"name": "DB_PASSWORD",
                                     "kind": "explicit", "value": "hunter2"})
        assert spec.value == b"hunter2"
        assert spec.kind is SecretKind.EXPLICIT

    def test_from_dict_unknown_kind(self):
        with pytest.raises(PolicyValidationError, match="unknown secret kind"):
            SecretSpec.from_dict({"name": "K", "kind": "quantum"})

    def test_from_dict_export(self):
        spec = SecretSpec.from_dict({"name": "K", "kind": "random",
                                     "export": ["other_policy"]})
        assert spec.export_to == ("other_policy",)


class TestMaterialize:
    def test_explicit_value_passthrough(self, rng):
        spec = SecretSpec(name="K", kind=SecretKind.EXPLICIT, value=b"v")
        assert materialize(spec, rng, now=0.0).value == b"v"

    def test_random_has_requested_size(self, rng):
        spec = SecretSpec(name="K", kind=SecretKind.RANDOM, size=48)
        assert len(materialize(spec, rng, now=0.0).value) == 48

    def test_random_deterministic_per_rng(self):
        spec = SecretSpec(name="K", kind=SecretKind.RANDOM)
        a = materialize(spec, DeterministicRandom(b"same"), now=0.0)
        b = materialize(spec, DeterministicRandom(b"same"), now=0.0)
        assert a.value == b.value

    def test_x509_produces_verifiable_certificate(self, rng):
        spec = SecretSpec(name="TLS_KEY", kind=SecretKind.X509,
                          common_name="nginx.example.com")
        secret = materialize(spec, rng, now=100.0)
        assert secret.certificate is not None
        secret.certificate.verify(now=200.0)
        assert secret.certificate.subject == "nginx.example.com"
        assert secret.value  # the private key bytes

    def test_materialize_all_rejects_duplicates(self, rng):
        specs = [SecretSpec(name="K", kind=SecretKind.RANDOM),
                 SecretSpec(name="K", kind=SecretKind.RANDOM)]
        with pytest.raises(PolicyValidationError, match="duplicate"):
            materialize_all(specs, rng, now=0.0)

    def test_materialize_all_distinct_values(self, rng):
        specs = [SecretSpec(name="A", kind=SecretKind.RANDOM),
                 SecretSpec(name="B", kind=SecretKind.RANDOM)]
        values = materialize_all(specs, rng, now=0.0)
        assert values["A"].value != values["B"].value


def make_service(name="app", mre=b"\x01" * 32):
    return ServiceSpec(name=name, image_name="img", mrenclaves=[mre])


class TestServiceSpec:
    def test_requires_mrenclave(self):
        with pytest.raises(PolicyValidationError, match="MRENCLAVE"):
            ServiceSpec(name="app", image_name="img").validate()

    def test_mre_length_checked(self):
        with pytest.raises(PolicyValidationError, match="32 bytes"):
            ServiceSpec(name="app", image_name="img",
                        mrenclaves=[b"short"]).validate()

    def test_permits_mrenclave(self):
        service = make_service(mre=b"\x01" * 32)
        assert service.permits_mrenclave(b"\x01" * 32)
        assert not service.permits_mrenclave(b"\x02" * 32)

    def test_empty_platforms_means_any(self):
        service = make_service()
        assert service.permits_platform(b"any-platform-id!")

    def test_platform_pinning(self):
        service = make_service()
        service.platforms = [b"\x0a" * 16]
        assert service.permits_platform(b"\x0a" * 16)
        assert not service.permits_platform(b"\x0b" * 16)


class TestSecurityPolicy:
    def test_duplicate_service_names_rejected(self):
        policy = SecurityPolicy(name="p",
                                services=[make_service(), make_service()])
        with pytest.raises(PolicyValidationError, match="duplicate service"):
            policy.validate()

    def test_duplicate_secret_names_rejected(self):
        policy = SecurityPolicy(
            name="p", services=[make_service()],
            secrets=[SecretSpec(name="K", kind=SecretKind.RANDOM),
                     SecretSpec(name="K", kind=SecretKind.RANDOM)])
        with pytest.raises(PolicyValidationError, match="duplicate secret"):
            policy.validate()

    def test_import_collision_rejected(self):
        policy = SecurityPolicy(
            name="p", services=[make_service()],
            secrets=[SecretSpec(name="K", kind=SecretKind.RANDOM)],
            imports=[ImportSpec(from_policy="other", secret_name="K")])
        with pytest.raises(PolicyValidationError, match="collides"):
            policy.validate()

    def test_import_alias_avoids_collision(self):
        policy = SecurityPolicy(
            name="p", services=[make_service()],
            secrets=[SecretSpec(name="K", kind=SecretKind.RANDOM)],
            imports=[ImportSpec(from_policy="other", secret_name="K",
                                local_name="OTHER_K")])
        policy.validate()

    def test_unnamed_policy_rejected(self):
        with pytest.raises(PolicyValidationError, match="no name"):
            SecurityPolicy(name="").validate()

    def test_service_lookup(self):
        policy = SecurityPolicy(name="p", services=[make_service("app")])
        assert policy.service("app").name == "app"
        with pytest.raises(PolicyValidationError):
            policy.service("missing")

    def test_exports_secret_to(self):
        policy = SecurityPolicy(
            name="p", services=[make_service()],
            secrets=[SecretSpec(name="K", kind=SecretKind.RANDOM,
                                export_to=("downstream",))])
        assert policy.exports_secret_to("K", "downstream")
        assert not policy.exports_secret_to("K", "other")
        assert not policy.exports_secret_to("MISSING", "downstream")


class TestBoardSpec:
    def make_member(self, name, veto=False):
        keys = KeyPair.generate(DeterministicRandom(name.encode()), bits=512)
        return PolicyBoardMember(name=name,
                                 certificate=self_signed_certificate(name,
                                                                     keys),
                                 approval_endpoint=f"ep-{name}", veto=veto)

    def test_threshold_bounds(self):
        members = (self.make_member("a"), self.make_member("b"))
        with pytest.raises(PolicyValidationError):
            BoardSpec(members=members, threshold=0).validate()
        with pytest.raises(PolicyValidationError):
            BoardSpec(members=members, threshold=3).validate()
        BoardSpec(members=members, threshold=2).validate()

    def test_empty_board_rejected(self):
        with pytest.raises(PolicyValidationError, match="no members"):
            BoardSpec(members=(), threshold=1).validate()

    def test_duplicate_member_names_rejected(self):
        members = (self.make_member("a"), self.make_member("a"))
        with pytest.raises(PolicyValidationError, match="duplicate"):
            BoardSpec(members=members, threshold=1).validate()

    def test_member_lookup(self):
        board = BoardSpec(members=(self.make_member("a"),), threshold=1)
        assert board.member("a").name == "a"
        with pytest.raises(PolicyValidationError):
            board.member("z")


class TestPolicyFromYaml:
    def test_parse_paper_style_policy(self):
        mre = b"\x42" * 32
        platform_id = b"\x10" * 16
        text = """
name: python_policy
services:
  - name: python_app
    image_name: python_image
    command: python /app.py -o /encrypted-output
    mrenclaves: ["$PYTHON_MRENCLAVE"]
    platforms: ["$PLATFORM_ID"]
    pwd: /
secrets:
  - name: API_KEY
    kind: random
    size: 32
  - name: DB_PASSWORD
    kind: explicit
    value: "hunter2"
volumes:
  - name: encrypted_output_volume
    path: /encrypted-output
    export: output_policy
"""
        policy = SecurityPolicy.from_yaml(
            text, mrenclave_registry={"PYTHON_MRENCLAVE": mre,
                                      "PLATFORM_ID": platform_id})
        assert policy.name == "python_policy"
        service = policy.service("python_app")
        assert service.mrenclaves == [mre]
        assert service.platforms == [platform_id]
        assert service.command[0] == "python"
        assert policy.secret_spec("DB_PASSWORD").value == b"hunter2"
        assert policy.volumes[0].export_to == "output_policy"

    def test_unresolved_placeholder_rejected(self):
        text = """
name: p
services:
  - name: app
    mrenclaves: ["$MISSING"]
"""
        with pytest.raises(PolicyValidationError, match="unresolved"):
            SecurityPolicy.from_yaml(text)

    def test_hex_mrenclave_accepted(self):
        text = f"""
name: p
services:
  - name: app
    mrenclaves: ["{'ab' * 32}"]
"""
        policy = SecurityPolicy.from_yaml(text)
        assert policy.service("app").mrenclaves == [b"\xab" * 32]

    def test_board_requires_known_certificates(self):
        text = """
name: p
services:
  - name: app
    mrenclaves: ["$MRE"]
board:
  threshold: 1
  members:
    - name: alice
      certificate: alice-cert
      approval_endpoint: ep-alice
"""
        with pytest.raises(PolicyValidationError, match="unknown certificate"):
            SecurityPolicy.from_yaml(text,
                                     mrenclave_registry={"MRE": b"\x01" * 32})

    def test_board_parses_with_registry(self):
        keys = KeyPair.generate(DeterministicRandom(b"alice"), bits=512)
        cert = self_signed_certificate("alice", keys)
        text = """
name: p
services:
  - name: app
    mrenclaves: ["$MRE"]
board:
  threshold: 1
  members:
    - name: alice
      certificate: alice-cert
      approval_endpoint: ep-alice
      veto: true
"""
        policy = SecurityPolicy.from_yaml(
            text, mrenclave_registry={"MRE": b"\x01" * 32},
            certificate_registry={"alice-cert": cert})
        assert policy.board is not None
        assert policy.board.member("alice").veto


_MRE = "ab" * 32
_SERVICES = [{"name": "app", "mrenclaves": [_MRE]}]
_MEMBER = {"name": "alice", "certificate": "alice-cert",
           "approval_endpoint": "ep-alice"}


def _without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


#: Documents from outside the program that once escaped from_dict as
#: ValueError, KeyError or AttributeError, or were accepted.
MALFORMED_DOCUMENTS = {
    "threshold-not-integer": {"name": "p", "services": _SERVICES,
                              "board": {"threshold": "two",
                                        "members": [_MEMBER]}},
    "secret-size-not-integer": {"name": "p",
                                "secrets": [{"name": "K", "size": "big"}]},
    "secret-without-name": {"name": "p", "secrets": [{"kind": "random"}]},
    "secret-not-a-mapping": {"name": "p", "secrets": ["K"]},
    "secret-name-not-string": {"name": "p", "secrets": [{"name": 5}]},
    "volume-without-name": {"name": "p", "volumes": [{"path": "/v"}]},
    "member-without-name": {"name": "p", "services": _SERVICES,
                            "board": {"members": [
                                _without(_MEMBER, "name")]}},
    "member-without-endpoint": {"name": "p", "services": _SERVICES,
                                "board": {"members": [
                                    _without(_MEMBER, "approval_endpoint")]}},
    "board-not-a-mapping": {"name": "p", "board": "yes"},
    "import-without-policy": {"name": "p", "imports": [{"secret": "K"}]},
    "import-without-secret": {"name": "p", "imports": [{"policy": "q"}]},
    "volume-import-without-volume": {"name": "p",
                                     "volume_imports": [{"policy": "q"}]},
    "policy-name-not-string": {"name": 5},
    "service-name-not-string": {"name": "p", "services": [
        {"name": 5, "mrenclaves": [_MRE]}]},
}


@pytest.mark.parametrize("document", MALFORMED_DOCUMENTS.values(),
                         ids=MALFORMED_DOCUMENTS.keys())
def test_malformed_document_raises_validation_error(document):
    keys = KeyPair.generate(DeterministicRandom(b"alice"), bits=512)
    registry = {"alice-cert": self_signed_certificate("alice", keys)}
    with pytest.raises(PolicyValidationError):
        SecurityPolicy.from_dict(document, certificate_registry=registry)
