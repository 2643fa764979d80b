"""Intel Attestation Service (IAS) simulator.

IAS is the remote verifier of EPID quotes: a client submits a quote, IAS
checks it against Intel's view of genuine platforms and signs a report.
Two properties matter for the paper's evaluation:

- **Latency** (Fig 8): attestation through IAS costs an extra round trip to
  embed verifier data in the quote, plus a long server-side verification
  wait — ~280 ms from the US, ~295 ms from Europe, vs ~15 ms attesting
  against a local PALAEMON.
- **Revocation knowledge**: IAS rejects quotes from platforms whose
  attestation keys it does not recognize or has revoked (how vulnerable
  microcode generations get deactivated).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Generator

from repro import calibration
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair, PublicKey, verify_signature
from repro.errors import QuoteError
from repro.sim.core import Event, Simulator
from repro.sim.network import Site, rtt_between
from repro.tee.quoting import Quote


class AttestationVerdict(enum.Enum):
    """IAS verdicts (a subset of the real API's ISV enclave statuses)."""

    OK = "OK"
    SIGNATURE_INVALID = "SIGNATURE_INVALID"
    KEY_REVOKED = "KEY_REVOKED"
    GROUP_OUT_OF_DATE = "GROUP_OUT_OF_DATE"


@dataclass(frozen=True)
class IASReport:
    """A signed IAS attestation verification report."""

    verdict: AttestationVerdict
    mrenclave: bytes
    platform_id: bytes
    report_data: bytes
    signature: bytes

    def to_signed_bytes(self) -> bytes:
        return (b"ias-report-v1" + self.verdict.value.encode()
                + self.mrenclave + self.platform_id + self.report_data)

    def verify(self, ias_public_key: PublicKey) -> None:
        """Verify the IAS signature over the report."""
        if not verify_signature(ias_public_key, self.to_signed_bytes(),
                                self.signature):
            raise QuoteError("IAS report signature invalid")
        if self.verdict is not AttestationVerdict.OK:
            raise QuoteError(f"IAS verdict: {self.verdict.value}")


class IntelAttestationService:
    """The IAS backend: knows genuine platforms, signs verdicts."""

    def __init__(self, simulator: Simulator, site: Site,
                 rng: DeterministicRandom) -> None:
        self.simulator = simulator
        self.site = site
        self._keys = KeyPair.generate(rng)
        #: Registered genuine platforms: attestation pubkey -> microcode rev.
        self._genuine: Dict[PublicKey, int] = {}
        self._revoked: set = set()
        #: Microcode revisions considered out of date (TCB recovery events).
        self.minimum_microcode: int = 0

    @property
    def public_key(self) -> PublicKey:
        return self._keys.public

    def register_platform(self, attestation_key: PublicKey,
                          microcode_revision: int) -> None:
        """Enroll a genuine platform (manufacturing-time provisioning)."""
        self._genuine[attestation_key] = microcode_revision

    def revoke_platform(self, attestation_key: PublicKey) -> None:
        """Revoke a platform's attestation key (e.g. compromised TCB)."""
        self._revoked.add(attestation_key)

    def _judge(self, quote: Quote) -> AttestationVerdict:
        try:
            quote.verify()
        except QuoteError:
            return AttestationVerdict.SIGNATURE_INVALID
        if quote.attestation_key in self._revoked:
            return AttestationVerdict.KEY_REVOKED
        revision = self._genuine.get(quote.attestation_key)
        if revision is None:
            return AttestationVerdict.SIGNATURE_INVALID
        if revision < self.minimum_microcode:
            return AttestationVerdict.GROUP_OUT_OF_DATE
        return AttestationVerdict.OK

    def verify_quote_local(self, quote: Quote) -> IASReport:
        """Verify and sign without modelling latency (for unit tests)."""
        verdict = self._judge(quote)
        report = IASReport(
            verdict=verdict,
            mrenclave=quote.report.mrenclave,
            platform_id=quote.report.platform_id,
            report_data=quote.report.report_data,
            signature=b"",
        )
        signature = self._keys.sign(report.to_signed_bytes())
        return IASReport(
            verdict=report.verdict, mrenclave=report.mrenclave,
            platform_id=report.platform_id, report_data=report.report_data,
            signature=signature,
        )

    def verify_quote(self, quote: Quote, client_site: Site,
                     ) -> Generator[Event, Any, IASReport]:
        """Full remote verification: network round trip + server-side wait.

        Mirrors the measured structure of Fig 8: the quote upload, the IAS
        verification time, and the response propagation.
        """
        round_trip = rtt_between(client_site, self.site)
        yield self.simulator.timeout(
            round_trip + calibration.IAS_VERIFICATION_SECONDS)
        return self.verify_quote_local(quote)
