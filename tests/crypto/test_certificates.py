"""Tests for certificates and CAs."""

import pytest

from repro.crypto.certificates import (
    Certificate,
    CertificateAuthority,
    self_signed_certificate,
)
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair
from repro.errors import CertificateError


@pytest.fixture(scope="module")
def rng():
    return DeterministicRandom(b"cert-tests")


@pytest.fixture(scope="module")
def authority(rng):
    return CertificateAuthority.create("root-ca", rng.fork(b"ca"))


@pytest.fixture(scope="module")
def subject_keys(rng):
    return KeyPair.generate(rng.fork(b"subject"), bits=512)


class TestIssueAndVerify:
    def test_valid_certificate_verifies(self, authority, subject_keys):
        cert = authority.issue("service", subject_keys.public, 0.0, 100.0)
        cert.verify(now=50.0)
        cert.verify(now=50.0, trusted_root=authority.root_public_key)

    def test_expired_rejected(self, authority, subject_keys):
        cert = authority.issue("service", subject_keys.public, 0.0, 100.0)
        with pytest.raises(CertificateError, match="expired"):
            cert.verify(now=101.0)

    def test_not_yet_valid_rejected(self, authority, subject_keys):
        cert = authority.issue("service", subject_keys.public, 10.0, 100.0)
        with pytest.raises(CertificateError, match="not yet valid"):
            cert.verify(now=5.0)

    def test_wrong_root_rejected(self, authority, subject_keys, rng):
        cert = authority.issue("service", subject_keys.public, 0.0, 100.0)
        other = CertificateAuthority.create("evil-ca", rng.fork(b"evil"))
        with pytest.raises(CertificateError, match="trusted root"):
            cert.verify(now=50.0, trusted_root=other.root_public_key)

    def test_forged_signature_rejected(self, authority, subject_keys):
        cert = authority.issue("service", subject_keys.public, 0.0, 100.0)
        forged = Certificate(
            subject="service", public_key=cert.public_key,
            issuer=cert.issuer, issuer_key=cert.issuer_key,
            not_before=cert.not_before, not_after=cert.not_after,
            attributes=cert.attributes, signature=b"\x01" * len(cert.signature))
        with pytest.raises(CertificateError, match="invalid signature"):
            forged.verify(now=50.0)

    def test_tampered_attributes_rejected(self, authority, subject_keys):
        cert = authority.issue("service", subject_keys.public, 0.0, 100.0,
                               attributes={"mrenclave": "aa"})
        tampered = Certificate(
            subject=cert.subject, public_key=cert.public_key,
            issuer=cert.issuer, issuer_key=cert.issuer_key,
            not_before=cert.not_before, not_after=cert.not_after,
            attributes={"mrenclave": "bb"}, signature=cert.signature)
        with pytest.raises(CertificateError):
            tampered.verify(now=50.0)

    def test_tampered_subject_rejected(self, authority, subject_keys):
        cert = authority.issue("service", subject_keys.public, 0.0, 100.0)
        tampered = Certificate(
            subject="other", public_key=cert.public_key,
            issuer=cert.issuer, issuer_key=cert.issuer_key,
            not_before=cert.not_before, not_after=cert.not_after,
            attributes=cert.attributes, signature=cert.signature)
        with pytest.raises(CertificateError):
            tampered.verify(now=50.0)

    def test_empty_validity_window_rejected(self, authority, subject_keys):
        with pytest.raises(CertificateError):
            authority.issue("service", subject_keys.public, 100.0, 100.0)

    def test_attributes_preserved(self, authority, subject_keys):
        cert = authority.issue("service", subject_keys.public, 0.0, 100.0,
                               attributes={"mrenclave": "deadbeef"})
        assert cert.attributes["mrenclave"] == "deadbeef"

    def test_fingerprint_distinct(self, authority, subject_keys):
        a = authority.issue("a", subject_keys.public, 0.0, 100.0)
        b = authority.issue("b", subject_keys.public, 0.0, 100.0)
        assert a.fingerprint() != b.fingerprint()


class TestSelfSigned:
    def test_self_signed_verifies(self, rng):
        pair = KeyPair.generate(rng.fork(b"self"), bits=512)
        cert = self_signed_certificate("client-1", pair)
        cert.verify(now=0.0)
        assert cert.issuer_key == cert.public_key

    def test_ca_issued_is_not_self_signed(self, authority, subject_keys):
        cert = authority.issue("service", subject_keys.public, 0.0, 100.0)
        assert cert.issuer_key != cert.public_key
