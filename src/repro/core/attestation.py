"""Application attestation (§IV-A).

When a SCONE-launched application starts, its runtime creates a fresh key
pair, obtains a quote binding the hash of the public key into the report
data, and sends the quote plus its policy name over TLS to PALAEMON.
PALAEMON verifies three things before releasing any configuration:

1. the TLS client public key matches the report data in the quote;
2. the policy exists and lists the quoted MRENCLAVE for the named service;
3. the application runs on a platform permitted by the policy.

PALAEMON verifies quotes locally (it keeps a registry of platform
attestation keys after their one-time IAS enrollment) — the reason its
attestation is an order of magnitude faster than per-start IAS round trips
(Figs 8-9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.policy import SecurityPolicy, ServiceSpec
from repro.crypto.primitives import sha256
from repro.crypto.signatures import PublicKey
from repro.errors import (
    AttestationError,
    MrenclaveNotPermittedError,
    PlatformNotPermittedError,
    QuoteError,
)
from repro.tee.quoting import Quote


@dataclass(frozen=True)
class AttestationEvidence:
    """What an application presents to PALAEMON at startup."""

    quote: Quote
    policy_name: str
    service_name: str
    tls_public_key: PublicKey


class PlatformRegistry:
    """PALAEMON's knowledge of genuine platforms.

    Platforms enroll once (their attestation key is verified through IAS at
    registration time); afterwards PALAEMON verifies quotes locally against
    this registry.
    """

    def __init__(self) -> None:
        self._platforms: Dict[bytes, PublicKey] = {}

    def enroll(self, platform_id: bytes, attestation_key: PublicKey) -> None:
        self._platforms[platform_id] = attestation_key

    def revoke(self, platform_id: bytes) -> None:
        self._platforms.pop(platform_id, None)

    def attestation_key(self, platform_id: bytes) -> Optional[PublicKey]:
        return self._platforms.get(platform_id)


def verify_evidence(evidence: AttestationEvidence, policy: SecurityPolicy,
                    registry: PlatformRegistry) -> ServiceSpec:
    """Run the §IV-A checks; returns the matched service spec.

    Raises a specific :class:`AttestationError` subtype per failed check so
    callers (and tests) can tell *why* attestation failed.
    """
    quote = evidence.quote
    # Check 0: the quote must be genuinely signed by an enrolled platform.
    expected_key = registry.attestation_key(quote.report.platform_id)
    if expected_key is None:
        raise AttestationError(
            "quote comes from an unenrolled platform")
    if quote.attestation_key != expected_key:
        raise AttestationError(
            "quote attestation key does not match the enrolled platform key")
    try:
        quote.verify()
    except QuoteError as exc:
        raise AttestationError(f"quote verification failed: {exc}") from exc

    # Check 1: TLS key binding — report data must hash the TLS public key.
    expected_binding = sha256(evidence.tls_public_key.to_bytes())
    if quote.report.report_data != expected_binding:
        raise AttestationError(
            "quote does not bind the presented TLS public key")

    # Check 2: the policy must list the MRENCLAVE for this service.
    service = policy.service(evidence.service_name)
    if not service.permits_mrenclave(quote.report.mrenclave):
        raise MrenclaveNotPermittedError(
            f"MRENCLAVE {quote.report.mrenclave.hex()[:16]}... is not "
            f"permitted for service {service.name!r}")

    # Check 3: the platform must be permitted (empty list = any platform).
    if not service.permits_platform(quote.report.platform_id):
        raise PlatformNotPermittedError(
            f"platform {quote.report.platform_id.hex()[:16]}... is not "
            f"permitted for service {service.name!r}")
    return service
