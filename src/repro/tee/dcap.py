"""DCAP-style attestation (the paper's announced next step, §V-B).

"In the future, we will support both IAS and DCAP" — Intel's Data Center
Attestation Primitives replace the online IAS round trip with an offline
verification chain: a *Provisioning Certification Enclave* (PCE) on each
platform certifies the platform's attestation key once, rooted in an Intel
provisioning root; verifiers then check quotes entirely locally against
cached certificates (a PCCS in real deployments).

The win PALAEMON cares about: attestation verification costs no network
round trip at all, and verifiers can pin TCB levels (microcode revisions)
through the certificate's attributes rather than through IAS verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.crypto.certificates import Certificate, CertificateAuthority
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import PublicKey
from repro.errors import QuoteError
from repro.tee.platform import SGXPlatform
from repro.tee.quoting import Quote


@dataclass(frozen=True)
class PlatformCertificate:
    """A PCK-style certificate: provisioning root -> platform attestation key.

    Carries the platform id and its TCB (microcode revision) as attributes,
    so verifiers can enforce TCB recency offline.
    """

    certificate: Certificate

    @property
    def platform_id(self) -> bytes:
        return bytes.fromhex(self.certificate.attributes["platform_id"])

    @property
    def tcb_revision(self) -> int:
        return int(self.certificate.attributes["tcb"], 16)

    @property
    def attestation_key(self) -> PublicKey:
        return self.certificate.public_key


class ProvisioningAuthority:
    """Intel's provisioning root: certifies platform attestation keys once.

    Stands in for the PCE + Intel PCS pipeline; platforms are enrolled at
    "manufacturing time" and their certificates can be fetched by any
    caching service.
    """

    def __init__(self, rng: DeterministicRandom) -> None:
        self._authority = CertificateAuthority.create(
            "intel-provisioning-root", rng)
        self._issued: Dict[bytes, PlatformCertificate] = {}

    @property
    def root_public_key(self) -> PublicKey:
        return self._authority.root_public_key

    def certify_platform(self, platform: SGXPlatform,
                         not_after: float = float("inf"),
                         ) -> PlatformCertificate:
        certificate = self._authority.issue(
            subject=f"pck:{platform.name}",
            public_key=platform.quoting_enclave.attestation_public_key,
            not_before=0.0, not_after=not_after,
            attributes={
                "platform_id": platform.platform_id.hex(),
                "tcb": f"{platform.microcode.revision:x}",
            })
        pck = PlatformCertificate(certificate)
        self._issued[platform.platform_id] = pck
        return pck

    def lookup(self, platform_id: bytes) -> Optional[PlatformCertificate]:
        """What a PCCS cache would serve for this platform."""
        return self._issued.get(platform_id)


class DCAPVerifier:
    """Offline quote verification against cached platform certificates."""

    def __init__(self, provisioning_root: PublicKey,
                 minimum_tcb: int = 0) -> None:
        self.provisioning_root = provisioning_root
        self.minimum_tcb = minimum_tcb
        self._cache: Dict[bytes, PlatformCertificate] = {}
        self.quotes_verified = 0

    def install_certificate(self, pck: PlatformCertificate,
                            now: float = 0.0) -> None:
        """Cache a platform certificate after validating its chain."""
        pck.certificate.verify(now=now, trusted_root=self.provisioning_root)
        self._cache[pck.platform_id] = pck

    def verify_quote(self, quote: Quote) -> None:
        """Verify a quote fully offline; raises :class:`QuoteError`.

        Checks: the platform is cached, the quote's signing key matches the
        certified attestation key, the signature verifies, and the
        platform's TCB is recent enough.
        """
        pck = self._cache.get(quote.report.platform_id)
        if pck is None:
            raise QuoteError(
                "no cached platform certificate for this platform")
        if quote.attestation_key != pck.attestation_key:
            raise QuoteError(
                "quote signed by a key other than the certified one")
        quote.verify()
        if pck.tcb_revision < self.minimum_tcb:
            raise QuoteError(
                f"platform TCB 0x{pck.tcb_revision:x} below required "
                f"0x{self.minimum_tcb:x}")
        self.quotes_verified += 1
