"""Local reports and the quoting enclave.

Attestation data flow, as in §IV-A of the paper: an application enclave asks
the platform's *quoting enclave* for a report binding its MRENCLAVE and some
caller-chosen report data (PALAEMON puts the hash of a freshly generated TLS
public key there). The quoting enclave signs the report with the platform's
attestation key, producing a *quote* that a remote verifier — PALAEMON or
IAS — checks against the known attestation public key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.primitives import sha256
from repro.crypto.signatures import KeyPair, PublicKey
from repro.errors import QuoteError
from repro.tee.enclave import Enclave, ExecutionMode


@dataclass(frozen=True)
class Report:
    """A local attestation report (unsigned; platform-local trust)."""

    mrenclave: bytes
    platform_id: bytes
    report_data: bytes
    debug: bool = False

    def to_bytes(self) -> bytes:
        return (b"report-v1" + self.mrenclave + self.platform_id
                + len(self.report_data).to_bytes(4, "big") + self.report_data
                + (b"\x01" if self.debug else b"\x00"))


@dataclass(frozen=True)
class Quote:
    """A signed report, verifiable with the platform attestation key."""

    report: Report
    signature: bytes
    attestation_key: PublicKey

    def verify(self) -> None:
        """Check the quote's signature; raises :class:`QuoteError`.

        Note this only proves the quote came from *a* platform holding the
        attestation key — binding that key to a genuine platform is the job
        of IAS (``repro.tee.ias``) or of a verifier with a platform registry.
        """
        from repro.crypto.signatures import verify_signature

        if not verify_signature(self.attestation_key,
                                self.report.to_bytes(), self.signature):
            raise QuoteError("quote signature invalid")


class QuotingEnclave:
    """The platform's quoting enclave: issues signed quotes.

    Refuses to quote enclaves that are not running in hardware mode —
    emulation mode has no hardware root of trust, exactly like SCONE's
    simulation mode cannot be remotely attested.
    """

    def __init__(self, platform_id: bytes,
                 attestation_keys: KeyPair) -> None:
        self.platform_id = platform_id
        self._keys = attestation_keys

    @property
    def attestation_public_key(self) -> PublicKey:
        return self._keys.public

    def create_report(self, enclave: Enclave, report_data: bytes) -> Report:
        """Create a local report for ``enclave``."""
        if len(report_data) > 64:
            # Real SGX limits REPORTDATA to 64 bytes; callers hash into it.
            report_data = sha256(report_data)
        return Report(mrenclave=enclave.mrenclave,
                      platform_id=self.platform_id,
                      report_data=report_data)

    def quote(self, enclave: Enclave, report_data: bytes) -> Quote:
        """Produce a signed quote for ``enclave``."""
        if enclave.mode is not ExecutionMode.HARDWARE:
            raise QuoteError(
                f"cannot quote enclave {enclave.image.name!r}: "
                f"mode {enclave.mode.value} has no hardware root of trust")
        if enclave.destroyed:
            raise QuoteError("cannot quote a destroyed enclave")
        report = self.create_report(enclave, report_data)
        signature = self._keys.sign(report.to_bytes())
        return Quote(report=report, signature=signature,
                     attestation_key=self._keys.public)
