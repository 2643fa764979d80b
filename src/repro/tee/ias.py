"""Intel Attestation Service (IAS) simulator.

IAS is the remote verifier of EPID quotes: a client submits a quote, IAS
checks it against Intel's view of genuine platforms and signs a report.
Three properties matter for the paper's evaluation:

- **Latency** (Fig 8): :meth:`IntelAttestationService.verify_quote` holds
  the client for the round trip to the IAS site plus the calibrated
  server-side verification time, 30 + 200 ms from the US and 45 + 200 ms
  from Europe. With init, the extra quote round trip and the config that
  follow, an attestation takes ~270 ms from the US and ~285 ms from
  Europe, vs ~15 ms against a local PALAEMON.
- **Capacity** (Fig 9): a front end of :attr:`FRONTEND_SLOTS` slots
  verifies that many quotes at a time, so parallel starts queue for IAS.
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
from repro.sim.resources import Resource
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

    #: Quotes the front end verifies concurrently.
    FRONTEND_SLOTS = 10

    def __init__(self, simulator: Simulator, site: Site,
                 rng: DeterministicRandom) -> None:
        self.simulator = simulator
        self.site = site
        self.frontend = Resource(simulator, capacity=self.FRONTEND_SLOTS,
                                 name="ias-frontend")
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
        """Full remote verification: Fig 8's IAS wait phase.

        The quote holds one front-end slot for the round trip from
        ``client_site`` plus the server-side verification time; a quote
        that finds every slot busy queues for one.
        """
        yield from self.frontend.hold(rtt_between(client_site, self.site)
                                      + calibration.IAS_VERIFICATION_SECONDS)
        return self.verify_quote_local(quote)
