"""TLS handshake simulation with perfect forward secrecy shape.

The handshake model: the client and server exchange ephemeral contributions
(two network round trips), optionally verify the server's certificate
against a trusted root, check that a client presenting a certificate holds
its private key (it signs the handshake transcript, like TLS
CertificateVerify), and derive a fresh session key via HKDF over both
contributions. Session keys are never reused across connections, mirroring
the PFS-only cipher policy the paper's security analysis mandates (§V-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro import calibration
from repro.crypto.certificates import Certificate
from repro.crypto.primitives import DeterministicRandom, hkdf
from repro.crypto.signatures import KeyPair, PublicKey, verify_signature
from repro.crypto.symmetric import SecretBox
from repro.errors import CertificateError
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.core import Event, Simulator
from repro.sim.network import Site, rtt_between


@dataclass
class TLSSession:
    """An established TLS session: shared key plus peer identity."""

    session_id: bytes
    client_box: SecretBox
    server_box: SecretBox
    server_certificate: Optional[Certificate]
    client_certificate: Optional[Certificate]
    established_at: float


def handshake_latency(client_site: Site, server_site: Site) -> float:
    """Closed-form handshake cost (used by latency-only models)."""
    rtt = rtt_between(client_site, server_site)
    return (calibration.TLS_HANDSHAKE_ROUND_TRIPS * rtt
            + calibration.TLS_HANDSHAKE_CRYPTO_SECONDS)


def perform_handshake(simulator: Simulator,
                      rng: DeterministicRandom,
                      client_site: Site,
                      server_site: Site,
                      server_certificate: Optional[Certificate] = None,
                      trusted_root: Optional[PublicKey] = None,
                      client_certificate: Optional[Certificate] = None,
                      telemetry: Optional[Telemetry] = None,
                      client_keys: Optional[KeyPair] = None,
                      ) -> Generator[Event, Any, TLSSession]:
    """Establish a TLS session; a process returning :class:`TLSSession`.

    If ``trusted_root`` is given, the server certificate is verified against
    it *during* the handshake — this is how clients of a managed PALAEMON
    instance attest it via the PALAEMON CA (§III-B): a provider-run instance
    without a CA-signed certificate fails here, before any request is sent.

    A ``client_certificate`` is the session's identity (REST policy calls
    authorize by it), so the client must prove it holds the certificate's
    key: ``client_keys`` signs the transcript, and a missing or
    non-verifying signature refuses the session with
    :class:`CertificateError`.

    ``telemetry`` (typically the serving instance's) counts and times the
    handshake; verification failures land in its error counter before the
    exception propagates.
    """
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    with telemetry.span("tls.handshake", client_site=client_site.value,
                        server_site=server_site.value):
        started = simulator.now
        yield simulator.timeout(handshake_latency(client_site, server_site))
        try:
            if trusted_root is not None:
                if server_certificate is None:
                    raise CertificateError("server presented no certificate")
                server_certificate.verify(now=simulator.now,
                                          trusted_root=trusted_root)
            client_random = rng.bytes(32)
            server_random = rng.bytes(32)
            if client_certificate is not None:
                transcript = (b"tls-client-verify:" + client_random
                              + server_random)
                signature = (client_keys.sign(transcript)
                             if client_keys is not None else b"")
                if not verify_signature(client_certificate.public_key,
                                        transcript, signature):
                    raise CertificateError(
                        f"client did not prove it holds the key of "
                        f"{client_certificate.subject!r}")
        except CertificateError:
            telemetry.inc("palaemon_tls_handshakes_total", result="failed")
            raise
        telemetry.inc("palaemon_tls_handshakes_total", result="established")
        telemetry.observe("palaemon_tls_handshake_seconds",
                          simulator.now - started)
    master = hkdf(client_random + server_random, b"tls-master-secret")
    session_id = rng.bytes(16)
    # Directional keys, like real TLS key blocks.
    client_key = hkdf(master, b"client-write")
    server_key = hkdf(master, b"server-write")
    return TLSSession(
        session_id=session_id,
        client_box=SecretBox(client_key, rng.fork(b"client" + session_id)),
        server_box=SecretBox(server_key, rng.fork(b"server" + session_id)),
        server_certificate=server_certificate,
        client_certificate=client_certificate,
        established_at=simulator.now,
    )
