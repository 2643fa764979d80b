"""Certificates and certificate authorities.

PALAEMON leans on certificates in three places: the PALAEMON CA issues TLS
certificates only to instances with known-good MRENCLAVEs; clients present a
certificate to own a security policy; and policy-board members are identified
by certificates. This module provides a minimal but real X.509-shaped
certificate: a signed statement binding a subject name (and optional
attributes such as an MRENCLAVE) to a public key, with a validity window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.signatures import KeyPair, PublicKey
from repro.errors import CertificateError, SignatureError


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a subject name to a public key.

    Attributes
    ----------
    subject:
        Human-readable subject name (e.g. ``"palaemon-instance-1"``).
    public_key:
        The subject's public key.
    issuer:
        The issuing CA's subject name (== ``subject`` for self-signed roots).
    issuer_key:
        The issuing CA's public key; verification checks the signature
        against this key.
    not_before / not_after:
        Validity window in simulation seconds.
    attributes:
        Free-form string attributes; the PALAEMON CA records the attested
        ``mrenclave`` here.
    signature:
        Issuer's signature over the to-be-signed serialization.
    """

    subject: str
    public_key: PublicKey
    issuer: str
    issuer_key: PublicKey
    not_before: float
    not_after: float
    attributes: Dict[str, str] = field(default_factory=dict)
    signature: bytes = b""

    def to_be_signed(self) -> bytes:
        """Canonical serialization covered by the issuer signature."""
        attrs = "".join(f"{k}={v};" for k, v in sorted(self.attributes.items()))
        header = (f"subject={self.subject};issuer={self.issuer};"
                  f"nb={self.not_before!r};na={self.not_after!r};{attrs}")
        return (header.encode() + self.public_key.to_bytes()
                + self.issuer_key.to_bytes())

    def fingerprint(self) -> bytes:
        """Stable identifier for this certificate."""
        return sha256(self.to_be_signed(), self.signature)[:16]

    def verify(self, now: float,
               trusted_root: Optional[PublicKey] = None) -> None:
        """Validate the certificate at time ``now``.

        Raises :class:`CertificateError` on an expired or not-yet-valid
        certificate, on a bad signature, or — when ``trusted_root`` is given —
        on an issuer key that is not the trusted root.
        """
        if now < self.not_before:
            raise CertificateError(
                f"certificate for {self.subject!r} not yet valid")
        if now > self.not_after:
            raise CertificateError(f"certificate for {self.subject!r} expired")
        if trusted_root is not None and self.issuer_key != trusted_root:
            raise CertificateError(
                f"certificate for {self.subject!r} not issued by trusted root")
        try:
            self.issuer_key.verify(self.to_be_signed(), self.signature)
        except SignatureError as exc:
            raise CertificateError(
                f"certificate for {self.subject!r} has an invalid signature"
            ) from exc


class CertificateAuthority:
    """A signing authority with a root key pair.

    The PALAEMON CA (``repro.core.ca``) wraps this with enclave residency and
    an MRE allow-list; plain clients use it directly for self-signed identity
    certificates.
    """

    def __init__(self, name: str, key_pair: KeyPair) -> None:
        self.name = name
        self._key_pair = key_pair

    @classmethod
    def create(cls, name: str, rng: DeterministicRandom) -> "CertificateAuthority":
        return cls(name, KeyPair.generate(rng))

    @property
    def root_public_key(self) -> PublicKey:
        return self._key_pair.public

    def issue(self, subject: str, public_key: PublicKey, not_before: float,
              not_after: float,
              attributes: Optional[Dict[str, str]] = None) -> Certificate:
        """Issue a certificate binding ``subject`` to ``public_key``."""
        if not_after <= not_before:
            raise CertificateError("certificate validity window is empty")
        certificate = Certificate(
            subject=subject,
            public_key=public_key,
            issuer=self.name,
            issuer_key=self._key_pair.public,
            not_before=not_before,
            not_after=not_after,
            attributes=dict(attributes or {}),
        )
        signature = self._key_pair.sign(certificate.to_be_signed())
        return Certificate(
            subject=certificate.subject,
            public_key=certificate.public_key,
            issuer=certificate.issuer,
            issuer_key=certificate.issuer_key,
            not_before=certificate.not_before,
            not_after=certificate.not_after,
            attributes=certificate.attributes,
            signature=signature,
        )


def self_signed_certificate(subject: str, key_pair: KeyPair) -> Certificate:
    """Create a self-signed identity certificate (used by clients), valid
    from time 0 on."""
    authority = CertificateAuthority(subject, key_pair)
    return authority.issue(subject, key_pair.public, 0.0, float("inf"))
