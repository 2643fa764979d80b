"""PALAEMON clients: instance attestation plus policy management (§IV-B).

A client never trusts a PALAEMON instance by default — the instance may be
run by an untrusted provider. Two attestation paths are supported, matching
Fig 4:

1. **TLS-based** — verify the instance's certificate chains to the PALAEMON
   CA root (the CA only certifies known-good PALAEMON MRENCLAVEs).
2. **Explicit** — fetch the instance's IAS report and check that it (a) is
   signed by IAS and (b) binds the instance's public key to a PALAEMON
   MRENCLAVE the client itself trusts.

Clients may combine both (§V-A).
"""

from __future__ import annotations

from typing import Any, FrozenSet

from repro.core.ca import verify_instance_certificate, verify_instance_report
from repro.core.dispatch import decode_reply
from repro.core.service import PalaemonService
from repro.crypto.certificates import Certificate, self_signed_certificate
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.signatures import KeyPair, PublicKey
from repro.errors import AttestationError
from repro.tee.ias import IASReport, IntelAttestationService


class PalaemonClient:
    """A client identity: key pair + self-signed certificate."""

    def __init__(self, name: str, rng: DeterministicRandom) -> None:
        self.name = name
        #: Proves this identity in TLS handshakes (see :attr:`certificate`).
        self.key_pair = KeyPair.generate(
            rng.fork(b"client:" + name.encode()))
        self.certificate: Certificate = self_signed_certificate(
            name, self.key_pair)
        #: Set after successful attestation of an instance.
        self.attested_instances: set = set()

    # -- instance attestation -------------------------------------------------

    def attest_instance_via_ca(self, instance: PalaemonService,
                               ca_root: PublicKey, now: float) -> None:
        """Path 1: check the instance certificate chains to the CA root."""
        verify_instance_certificate(instance.name, instance.certificate,
                                    instance.public_key, ca_root, now)
        self.attested_instances.add(instance.name)

    def attest_instance_via_rest(self, rest_client, ca_root: PublicKey):
        """Path 1 over the wire: fetch ``instance.describe`` and verify.

        A simulation process. Unlike :meth:`attest_instance_via_ca` this
        works against a remote front-end the client can only reach over
        the network. To survive transient faults, run it under
        :meth:`RetryPolicy.call <repro.sim.retry.RetryPolicy.call>`: a bad
        certificate raises :class:`AttestationError`, a verdict that is
        never retried.
        """
        simulator = rest_client.connection.network.simulator
        description = yield from rest_client.call("instance.describe")
        verify_instance_certificate(description.get("name"),
                                    description.get("certificate"),
                                    description.get("public_key"), ca_root,
                                    simulator.now)
        self.attested_instances.add(description["name"])
        return description

    def attest_instance_explicitly(self, instance: PalaemonService,
                                   ias: IntelAttestationService,
                                   trusted_mrenclaves: FrozenSet[bytes],
                                   ) -> IASReport:
        """Path 2: request and verify the instance's IAS report directly.

        Clients use this when they do not trust the current CA — e.g. they
        only trust PALAEMON versions they reviewed themselves (§III-B).
        """
        quote = instance.platform.quoting_enclave.quote(
            instance.enclave, sha256(instance.public_key.to_bytes()))
        report = ias.verify_quote_local(quote)
        verify_instance_report(report, ias.public_key, instance.public_key,
                               trusted_mrenclaves)
        self.attested_instances.add(instance.name)
        return report

    def attest_instance_pinned(self, instance: PalaemonService,
                               pinned_keys: FrozenSet[PublicKey],
                               ca_root: PublicKey, now: float) -> None:
        """CA attestation plus public-key pinning (§IV-B).

        Some clients 'might be limited to connecting only to certain
        PALAEMON instances identified by their public keys' — e.g. a data
        provider that pre-approved specific deployments. The instance must
        both carry a valid CA certificate *and* be one of the pinned keys.
        """
        if instance.public_key not in pinned_keys:
            raise AttestationError(
                f"instance {instance.name!r} is not in this client's "
                f"pinned set")
        self.attest_instance_via_ca(instance, ca_root, now)

    def require_attested(self, instance: PalaemonService) -> None:
        """Guard: clients must attest before sending requests."""
        if instance.name not in self.attested_instances:
            raise AttestationError(
                f"client {self.name!r} has not attested instance "
                f"{instance.name!r}")

    # -- policy operations (attestation-guarded, via the dispatcher) ----------

    def invoke(self, instance: PalaemonService, route: str, **fields) -> Any:
        """Send one operation through the instance's dispatch pipeline.

        The in-process transport: the same registry, middleware, admission
        control and reply decoding as REST and federation, minus the
        network. Raises the typed error (not a structured reply) on
        refusal.
        """
        self.require_attested(instance)
        return decode_reply(instance.dispatcher.handle(
            dict(fields, route=route), transport="inprocess",
            certificate=self.certificate))

    def create_policy(self, instance: PalaemonService, policy) -> None:
        self.invoke(instance, "policy.create", policy=policy)

    def read_policy(self, instance: PalaemonService, policy_name: str):
        return self.invoke(instance, "policy.read", name=policy_name)

    def update_policy(self, instance: PalaemonService, policy) -> None:
        self.invoke(instance, "policy.update", policy=policy)
