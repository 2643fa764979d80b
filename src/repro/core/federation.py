"""Decentralized PALAEMON: secret sharing between service instances.

The paper evaluates "the retrieval of keys from remote PALAEMON services
... when using PALAEMON in a decentralized fashion" (Fig 12) and lists
"secret sharing between service instances" among the features absent from
other KMSs (§VII). This module implements that federation layer:

- instances *peer* after mutually attesting (each verifies the other's
  CA certificate, so only genuine PALAEMON builds join the mesh);
- a policy's secrets can be fetched from a peer when the local instance
  does not hold the policy, subject to the same export rules that govern
  cross-policy imports;
- all peer traffic rides TLS sessions (:mod:`repro.tls.channel`) over the
  simulated network, so a fetch's latency is the real round trip between
  the two sites and its records are sealed under per-connection keys;
- each peer request runs the dispatcher's timed pipeline, so a handler
  pays its modelled latency (a backup's disk commit) before the reply;
- fail-over replication (:mod:`repro.core.failover`) rides the same
  links: a peer link is the one attested channel between two instances.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.core.ca import verify_instance_certificate
from repro.core.dispatch import (
    AUTH_PEER,
    DEFAULT_REGISTRY,
    DispatchContext,
    decode_reply,
)
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import PublicKey
from repro.errors import (
    AccessDeniedError,
    AttestationError,
    PolicyNotFoundError,
)
from repro.sim.core import Event, Simulator
from repro.sim.network import Network, Site
from repro.tls.channel import TLSConnection, TLSServer
from repro.tls.handshake import TLSSession


class FederatedInstance:
    """A PALAEMON instance participating in a federation mesh.

    Every instance serves a :class:`~repro.tls.channel.TLSServer` on its
    ``fed-{name}`` endpoint. Peering opens one TLS connection per
    direction, each from its own ``fed-{name}-to-{peer}`` client endpoint
    (a shared inbox would mix the sessions' replies). The server runs
    one request at a time through the dispatcher's timed pipeline.
    Fetches and fail-over replication batches are sealed request/reply
    records under those per-connection session keys, so they can be
    dropped, duplicated, delayed, or blacked out by an attached
    :class:`~repro.sim.faults.FaultPlan`, but never read or forged by
    anyone on the wire (the paper's "all peer traffic is TLS", checkable
    via the wire log).
    """

    def __init__(self, service: PalaemonService, site: Site,
                 ca_root: PublicKey, network: Network,
                 rng: Optional[DeterministicRandom] = None) -> None:
        self.service = service
        self.site = site
        self.ca_root = ca_root
        self.network = network
        #: Outbound connection to each attested peer, by peer name.
        self._links: Dict[str, TLSConnection] = {}
        self._rng = rng or DeterministicRandom(
            b"federation:" + service.name.encode())
        self._server = TLSServer(
            network, network.endpoint(f"fed-{service.name}", site),
            self._serve)
        self._server.start()

    @property
    def simulator(self) -> Simulator:
        return self.service.simulator

    @property
    def name(self) -> str:
        return self.service.name

    def stop(self) -> None:
        """Stop serving peers; another instance may then serve the
        ``fed-{name}`` endpoint."""
        self._server.stop()

    # -- peering ---------------------------------------------------------

    def peer_with(self, other: "FederatedInstance",
                  ) -> Generator[Event, Any, None]:
        """Mutually attest and open a TLS connection in each direction.

        Both directions' handshakes run concurrently, so peering costs one
        handshake latency. A certificate whose subject is not its
        instance's name is refused, since the subject names the peer on
        every request the link carries.
        """
        pairs = ((self, other), (other, self))
        for side, counterpart in pairs:
            verify_instance_certificate(
                counterpart.name, counterpart.service.certificate,
                counterpart.service.public_key, side.ca_root,
                self.simulator.now)
            if counterpart.service.certificate.subject != counterpart.name:
                raise AttestationError(
                    f"instance {counterpart.name!r} presents a certificate "
                    f"for {counterpart.service.certificate.subject!r}")
        connections = yield self.simulator.all_of([
            self.simulator.process(side._connect(counterpart),
                                   name=f"fed-peer-{side.name}")
            for side, counterpart in pairs])
        for (side, counterpart), connection in zip(pairs, connections):
            side._links[counterpart.name] = connection
            side.service.telemetry.inc("palaemon_federation_peers_total")
            side.service.telemetry.gauge("palaemon_federation_peer_links",
                                         len(side._links))
            side.service.telemetry.audit("federation.peer",
                                         peer=counterpart.name,
                                         site=counterpart.site.value)

    def _connect(self, peer: "FederatedInstance",
                 ) -> Generator[Event, Any, TLSConnection]:
        """Handshake with ``peer``'s server, verifying its CA certificate."""
        connection = yield from TLSConnection.connect(
            self.network, f"fed-{self.name}-to-{peer.name}", self.site,
            peer._server.endpoint,
            self._rng.fork(b"link:" + peer.name.encode()),
            server_certificate=peer.service.certificate,
            trusted_root=self.ca_root,
            client_certificate=self.service.certificate,
            client_keys=self.service.key_pair)
        return connection

    def peers(self) -> List[str]:
        return sorted(self._links)

    def link(self, peer_name: str) -> TLSConnection:
        """The outbound connection to an attested peer; fetches and
        fail-over replication both ride it."""
        connection = self._links.get(peer_name)
        if connection is None:
            raise AttestationError(f"no attested link to {peer_name!r}")
        return connection

    # -- remote secret retrieval ----------------------------------------------

    def fetch_remote_secrets(self, peer_name: str, policy_name: str,
                             requesting_policy: str,
                             secret_names: List[str],
                             ) -> Generator[Event, Any, Dict[str, bytes]]:
        """Retrieve exported secrets of a policy held by a peer.

        The peer enforces the owning policy's export list against the
        *requesting* policy's name — federation does not widen access, it
        only moves it across instances. One request fetches any number of
        secrets (the Fig 12 flatness). A refusal re-raises the typed error
        the peer decided.
        """
        connection = self.link(peer_name)
        telemetry = self.service.telemetry
        with telemetry.span("federation.fetch", peer=peer_name,
                            policy=policy_name):
            reply = yield from connection.request(
                {"route": "federation.fetch", "policy": policy_name,
                 "requesting_policy": requesting_policy,
                 "secrets": list(secret_names)})
            secrets = decode_reply(reply)
        telemetry.inc("palaemon_federation_fetches_total")
        telemetry.audit("federation.fetch", peer=peer_name,
                        policy=policy_name,
                        requesting_policy=requesting_policy,
                        secrets=len(secrets))
        return secrets

    def _serve(self, request: Any, session: TLSSession,
               ) -> Generator[Event, Any, Dict[str, Any]]:
        """Answer one peer request with the timed dispatch pipeline; the
        caller is the peer whose certificate :meth:`peer_with` verified
        before the session was registered."""
        return self.service.dispatcher.dispatch(
            request, transport="federation",
            peer=session.client_certificate.subject)


@DEFAULT_REGISTRY.operation(
    "federation.fetch", fields=("policy", "requesting_policy", "secrets"),
    auth=AUTH_PEER, serving_required=False, audit=("federation.serve",),
    summary="serve a peer's exported-secret fetch (export-list enforced)")
def _federation_fetch(ctx: DispatchContext) -> Dict[str, bytes]:
    service = ctx.service
    policy_name = ctx.request["policy"]
    requesting_policy = ctx.request["requesting_policy"]
    policy = service.store.get("policies", policy_name)
    if policy is None:
        raise PolicyNotFoundError(
            f"peer {service.name!r} has no policy {policy_name!r}")
    secrets = service.store.get("secrets", policy_name)
    result: Dict[str, bytes] = {}
    for name in ctx.request["secrets"]:
        if not policy.exports_secret_to(name, requesting_policy):
            service.telemetry.audit(
                "federation.serve", policy=policy_name,
                requesting_policy=requesting_policy, secret=name,
                result="denied")
            raise AccessDeniedError(
                f"policy {policy_name!r} does not export {name!r} to "
                f"{requesting_policy!r}")
        result[name] = secrets[name].value
    service.telemetry.audit(
        "federation.serve", policy=policy_name,
        requesting_policy=requesting_policy, secrets=len(result),
        result="served")
    return result


class Federation:
    """Convenience wrapper: a fully-meshed set of federated instances."""

    def __init__(self) -> None:
        self.instances: Dict[str, FederatedInstance] = {}

    def add(self, instance: FederatedInstance) -> None:
        self.instances[instance.name] = instance

    def connect_all(self) -> Generator[Event, Any, None]:
        """Peer every pair of instances (sequentially, for determinism)."""
        names = sorted(self.instances)
        for i, left in enumerate(names):
            for right in names[i + 1:]:
                yield self.instances[left].simulator.process(
                    self.instances[left].peer_with(self.instances[right]))

    def locate_policy(self, policy_name: str) -> Optional[str]:
        """Name of an instance holding the policy, if any."""
        for name in sorted(self.instances):
            instance = self.instances[name]
            if instance.service.store.get("policies", policy_name) is not None:
                return name
        return None
