"""The PALAEMON certification authority (§III-B).

The CA enables TLS-based attestation of managed PALAEMON instances: it first
attests a candidate instance explicitly (quote -> IAS report), checks the
instance's MRENCLAVE against the allow-list of *correct PALAEMON versions
baked into the CA binary*, and only then signs a TLS certificate for the
instance's public key. Clients that trust the CA root can attest any
instance simply by checking its TLS certificate chain.

Because the MRE set lives inside the CA image, changing it means shipping a
new CA image with a new MRENCLAVE — which is exactly how PALAEMON updates are
governed: the CA's own update requires policy-board approval (§III-E), and
certificate lifetimes are kept short so retired PALAEMON versions age out.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.crypto.certificates import Certificate, CertificateAuthority
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.signatures import PublicKey
from repro.errors import AttestationError, CertificateError, QuoteError
from repro.tee.enclave import Enclave
from repro.tee.ias import IASReport, IntelAttestationService
from repro.tee.image import EnclaveImage, build_image
from repro.tee.platform import SGXPlatform
from repro.tee.quoting import Quote


def verify_instance_certificate(name: str,
                                certificate: Optional[Certificate],
                                public_key: PublicKey, ca_root: PublicKey,
                                now: float) -> None:
    """TLS-based attestation: the instance ``name`` holds a certificate
    that chains to ``ca_root`` and binds its ``public_key``.

    Every failure is an :class:`AttestationError`.
    """
    if certificate is None:
        raise AttestationError(f"instance {name!r} has no CA certificate")
    try:
        certificate.verify(now=now, trusted_root=ca_root)
    except CertificateError as exc:
        raise AttestationError(
            f"instance {name!r} certificate rejected: {exc}") from exc
    if certificate.public_key != public_key:
        raise AttestationError(
            f"instance {name!r} certificate does not match its public key")


def verify_instance_report(report: IASReport, ias_public_key: PublicKey,
                           instance_public_key: PublicKey,
                           allowed_mrenclaves: FrozenSet[bytes]) -> None:
    """Explicit attestation: ``report`` is an IAS-signed ``OK`` verdict
    that binds ``instance_public_key`` to an MRENCLAVE in
    ``allowed_mrenclaves``.

    Every failure is an :class:`AttestationError`.
    """
    try:
        report.verify(ias_public_key)
    except QuoteError as exc:
        raise AttestationError(
            f"IAS rejected the instance quote: {exc}") from exc
    if report.report_data != sha256(instance_public_key.to_bytes()):
        raise AttestationError(
            "IAS report does not bind the instance public key")
    if report.mrenclave not in allowed_mrenclaves:
        raise AttestationError(
            f"MRENCLAVE {report.mrenclave.hex()[:16]}... is not an "
            f"approved PALAEMON version")


def build_ca_image(approved_palaemon_mrenclaves: FrozenSet[bytes],
                   version: str = "1.0") -> EnclaveImage:
    """Build a CA image with the MRE allow-list embedded in its binary.

    The allow-list is concatenated into the image's initialized data, so any
    tampering with it changes the CA's own MRENCLAVE.
    """
    embedded = b"".join(sorted(approved_palaemon_mrenclaves))
    return EnclaveImage(name="palaemon-ca",
                        code=build_image("palaemon-ca-code",
                                         version=version).code,
                        initialized_data=embedded,
                        heap_bytes=4 * 1024 * 1024,
                        version=version)


class PalaemonCA:
    """The CA service, running inside its own enclave."""

    #: Default certificate lifetime: short, to force timely upgrades.
    DEFAULT_CERT_LIFETIME_SECONDS = 7 * 24 * 3600.0

    def __init__(self, platform: SGXPlatform,
                 ias: IntelAttestationService,
                 approved_mrenclaves: FrozenSet[bytes],
                 rng: DeterministicRandom,
                 version: str = "1.0",
                 cert_lifetime: float = DEFAULT_CERT_LIFETIME_SECONDS) -> None:
        self.platform = platform
        self.ias = ias
        self.approved_mrenclaves = frozenset(approved_mrenclaves)
        self.cert_lifetime = cert_lifetime
        self.image = build_ca_image(self.approved_mrenclaves, version=version)
        self.enclave: Enclave = platform.launch_instant(self.image)
        self._authority = CertificateAuthority.create(
            f"palaemon-ca-{version}", rng.fork(b"ca-root"))

    @property
    def root_public_key(self) -> PublicKey:
        return self._authority.root_public_key

    def issue_instance_certificate(self, quote: Quote,
                                   instance_public_key: PublicKey,
                                   subject: str) -> Certificate:
        """Attest a PALAEMON instance and issue its TLS certificate.

        The instance must present a quote whose report data binds
        ``instance_public_key`` and whose MRENCLAVE is in the allow-list.
        Issuance is instant: the quote is judged by
        :meth:`~repro.tee.ias.IntelAttestationService.verify_quote_local`,
        which charges no IAS latency, because every deployment (perfbench's
        included) calls :meth:`PalaemonService.obtain_certificate` outside
        a simulated process, once per instance.
        """
        report = self.ias.verify_quote_local(quote)
        verify_instance_report(report, self.ias.public_key,
                               instance_public_key, self.approved_mrenclaves)
        now = self.platform.simulator.now
        certificate = self._authority.issue(
            subject=subject,
            public_key=instance_public_key,
            not_before=now,
            not_after=now + self.cert_lifetime,
            attributes={"mrenclave": report.mrenclave.hex(),
                        "role": "palaemon-instance"},
        )
        return certificate

    def updated(self, new_approved_mrenclaves: FrozenSet[bytes],
                rng: DeterministicRandom, version: str) -> "PalaemonCA":
        """Build the successor CA with a new allow-list (a CA update).

        Deploying it is governed by the PALAEMON policy board — see
        :mod:`repro.core.update`. The successor has a fresh root key, so
        certificates from a retired CA do not chain to the new root.
        """
        return PalaemonCA(self.platform, self.ias, new_approved_mrenclaves,
                          rng, version=version,
                          cert_lifetime=self.cert_lifetime)
