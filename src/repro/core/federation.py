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
- all peer traffic travels as sealed messages over the simulated network,
  so a fetch's latency is the real round trip between the two sites.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

import repro.errors as errors
from repro.core.dispatch import AUTH_PEER, DEFAULT_REGISTRY, DispatchContext
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom, hkdf, sha256
from repro.crypto.signatures import PublicKey
from repro.crypto.symmetric import SecretBox
from repro.errors import (
    AccessDeniedError,
    AttestationError,
    PolicyNotFoundError,
    ReproError,
)
from repro.sim.core import Event, ProcessInterrupt, Simulator
from repro.sim.network import Network, Site
from repro.sim.retry import RetryPolicy
from repro.tls.handshake import handshake_latency


@dataclass
class PeerLink:
    """An attested, long-lived connection to a remote instance."""

    peer: "FederatedInstance"
    #: AEAD box for link traffic, keyed at peering.
    box: SecretBox = field(repr=False)
    requests: int = 0


class FederatedInstance:
    """A PALAEMON instance participating in a federation mesh.

    Every instance owns a real ``fed-{name}`` endpoint and a serve loop on
    ``network``. Fetches are request/reply messages that can be dropped,
    duplicated, delayed, or blacked out by an attached
    :class:`~repro.sim.faults.FaultPlan`, and payloads cross the wire
    AEAD-sealed under a per-link key derived at peering (the paper's "all
    peer traffic is TLS", checkable via the wire log).
    """

    def __init__(self, service: PalaemonService, site: Site,
                 ca_root: PublicKey, network: Network,
                 rng: Optional[DeterministicRandom] = None) -> None:
        self.service = service
        self.site = site
        self.ca_root = ca_root
        self._links: Dict[str, PeerLink] = {}
        self._rng = rng or DeterministicRandom(
            b"federation:" + service.name.encode())
        self._request_seq = 0
        #: Serve endpoint (requests in) and client endpoint (replies in).
        #: Distinct so the serve loop's mailbox getter can never consume a
        #: reply meant for an in-flight fetch.
        self.endpoint = network.endpoint(f"fed-{service.name}", site)
        self.client_endpoint = network.endpoint(
            f"fed-{service.name}-client", site)
        self.simulator.process(self._serve_loop(),
                               name=f"fed-serve-{service.name}")

    @property
    def simulator(self) -> Simulator:
        return self.service.simulator

    @property
    def name(self) -> str:
        return self.service.name

    # -- peering ---------------------------------------------------------

    def peer_with(self, other: "FederatedInstance",
                  ) -> Generator[Event, Any, None]:
        """Mutually attest and establish a persistent TLS link."""
        for side, counterpart in ((self, other), (other, self)):
            certificate = counterpart.service.certificate
            if certificate is None:
                raise AttestationError(
                    f"instance {counterpart.name!r} has no CA certificate")
            certificate.verify(now=self.simulator.now,
                               trusted_root=side.ca_root)
            if certificate.public_key != counterpart.service.public_key:
                raise AttestationError(
                    f"instance {counterpart.name!r} presented a certificate "
                    f"for a different key")
        yield self.simulator.timeout(
            handshake_latency(self.site, other.site))
        # Per-link AEAD key, derived at peering like a TLS master secret;
        # both sides hold the same key but fork their own nonce streams.
        link_key = hkdf(sha256(
            *sorted((self.service.public_key.to_bytes(),
                     other.service.public_key.to_bytes()))),
            b"palaemon-federation-link")
        for side, counterpart in ((self, other), (other, self)):
            side._links[counterpart.name] = PeerLink(
                peer=counterpart,
                box=SecretBox(link_key, side._rng.fork(
                    b"link:" + counterpart.name.encode())))
            side.service.telemetry.inc("palaemon_federation_peers_total")
            side.service.telemetry.gauge("palaemon_federation_peer_links",
                                         len(side._links))
            side.service.telemetry.audit("federation.peer",
                                         peer=counterpart.name,
                                         site=counterpart.site.value)

    def peers(self) -> List[str]:
        return sorted(self._links)

    # -- remote secret retrieval ----------------------------------------------

    def fetch_remote_secrets(self, peer_name: str, policy_name: str,
                             requesting_policy: str,
                             secret_names: List[str],
                             ) -> Generator[Event, Any, Dict[str, bytes]]:
        """Retrieve exported secrets of a policy held by a peer.

        The peer enforces the owning policy's export list against the
        *requesting* policy's name — federation does not widen access, it
        only moves it across instances. One request fetches any number of
        secrets (the Fig 12 flatness).
        """
        link = self._links.get(peer_name)
        if link is None:
            raise AttestationError(f"no attested link to {peer_name!r}")
        telemetry = self.service.telemetry
        with telemetry.span("federation.fetch", peer=peer_name,
                            policy=policy_name):
            secrets = yield from self._fetch_over_network(
                link, policy_name, requesting_policy, secret_names)
        telemetry.inc("palaemon_federation_fetches_total")
        telemetry.audit("federation.fetch", peer=peer_name,
                        policy=policy_name,
                        requesting_policy=requesting_policy,
                        secrets=len(secrets))
        return secrets

    def fetch_remote_secrets_with_retry(
            self, peer_name: str, policy_name: str, requesting_policy: str,
            secret_names: List[str],
            retry_policy: Optional[RetryPolicy] = None,
            rng: Optional[DeterministicRandom] = None,
            ) -> Generator[Event, Any, Dict[str, bytes]]:
        """:meth:`fetch_remote_secrets` under a bounded retry budget.

        The default policy gives every attempt a 1 s deadline, so a
        partition turns into :class:`DeadlineExceededError` + backoff
        instead of an unbounded hang; if the partition outlasts the
        budget, :class:`~repro.errors.RetryExhaustedError` propagates.
        """
        retry_policy = retry_policy or RetryPolicy(
            max_attempts=5, base_delay=0.1, attempt_timeout=1.0)
        rng = rng or self._rng.fork(b"fetch-retry")
        result = yield self.simulator.process(retry_policy.call(
            self.simulator,
            lambda: self.fetch_remote_secrets(
                peer_name, policy_name, requesting_policy, secret_names),
            rng, operation="federation.fetch",
            telemetry=self.service.telemetry),
            name=f"fed-fetch-retry-{self.name}")
        return result

    def _fetch_over_network(self, link: PeerLink, policy_name: str,
                            requesting_policy: str, secret_names: List[str],
                            ) -> Generator[Event, Any, Dict[str, bytes]]:
        """One sealed request/reply over the message fabric."""
        self._request_seq += 1
        rid = self._request_seq
        request = {"kind": "fetch", "rid": rid, "policy": policy_name,
                   "requesting_policy": requesting_policy,
                   "secrets": list(secret_names)}
        self.client_endpoint.send(
            link.peer.endpoint,
            {"from": self.name, "data": link.box.seal(pickle.dumps(request))},
            size_bytes=512, reply_to=self.client_endpoint)
        link.requests += 1
        while True:
            pending = self.client_endpoint.receive()
            try:
                message = yield pending
            except ProcessInterrupt:
                # Abandoned by a with_timeout deadline: release the
                # mailbox getter so a retry sees the next reply.
                self.client_endpoint.inbox.cancel(pending)
                raise
            payload = message.payload
            if not isinstance(payload, dict) or "data" not in payload:
                continue
            peer_link = self._links.get(payload.get("from"))
            if peer_link is None:
                continue
            reply = pickle.loads(peer_link.box.open(payload["data"]))
            if reply.get("rid") != rid:
                continue  # stale reply from a timed-out attempt
            if "error_kind" in reply:
                exc_cls = getattr(errors, reply["error_kind"], ReproError)
                raise exc_cls(reply["message"])
            return reply["secrets"]

    def _serve_loop(self) -> Generator[Event, Any, None]:
        """Answer sealed requests arriving on the serve endpoint.

        A Byzantine or faulty sender cannot crash the loop: messages that
        are malformed, from unknown peers, or fail AEAD verification are
        dropped like a TLS alert. Well-formed requests go through the
        service's dispatch pipeline (``federation.<kind>`` routes), so
        refusals travel back as typed error replies (``error_kind`` names
        the exception class) and the client re-raises the *same* verdict
        it would get in-process — including ``unknown_route`` for kinds
        the registry does not know.
        """
        from repro.errors import CryptoError
        from repro.sim.resources import StoreClosed

        while True:
            try:
                message = yield self.endpoint.receive()
            except StoreClosed:
                return
            payload = message.payload
            if not isinstance(payload, dict) or "data" not in payload:
                continue
            link = self._links.get(payload.get("from"))
            if link is None:
                continue
            try:
                request = pickle.loads(link.box.open(payload["data"]))
            except CryptoError:
                continue
            if not isinstance(request, dict):
                continue
            route_request = {key: value for key, value in request.items()
                             if key not in ("kind", "rid")}
            route_request["route"] = f"federation.{request.get('kind')}"
            outcome = self.service.dispatcher.handle(
                route_request, transport="federation",
                peer=payload.get("from"), target=self)
            reply: Dict[str, Any] = {"rid": request.get("rid")}
            if "error" in outcome:
                reply["error_kind"] = outcome["kind"]
                reply["message"] = outcome["error"]
                reply["code"] = outcome["code"]
            else:
                reply["secrets"] = outcome["ok"]
            if message.reply_to is not None:
                sealed = link.box.seal(pickle.dumps(reply))
                # Size the reply by its sealed payload, so the latency
                # model reflects the secrets actually shipped.
                self.endpoint.send(
                    message.reply_to,
                    {"from": self.name, "data": sealed},
                    size_bytes=len(sealed))

    def _serve_secret_request(self, policy_name: str, requesting_policy: str,
                              secret_names: List[str]) -> Dict[str, bytes]:
        policy = self.service.store.get("policies", policy_name)
        if policy is None:
            raise PolicyNotFoundError(
                f"peer {self.name!r} has no policy {policy_name!r}")
        secrets = self.service.store.get("secrets", policy_name)
        result: Dict[str, bytes] = {}
        for name in secret_names:
            if not policy.exports_secret_to(name, requesting_policy):
                self.service.telemetry.audit(
                    "federation.serve", policy=policy_name,
                    requesting_policy=requesting_policy, secret=name,
                    result="denied")
                raise AccessDeniedError(
                    f"policy {policy_name!r} does not export {name!r} to "
                    f"{requesting_policy!r}")
            result[name] = secrets[name].value
        self.service.telemetry.audit(
            "federation.serve", policy=policy_name,
            requesting_policy=requesting_policy, secrets=len(result),
            result="served")
        return result


@DEFAULT_REGISTRY.operation(
    "federation.fetch", fields=("policy", "requesting_policy", "secrets"),
    auth=AUTH_PEER, serving_required=False, transports=("federation",),
    audit=("federation.serve",),
    summary="serve a peer's exported-secret fetch (export-list enforced)")
def _federation_fetch(ctx: DispatchContext) -> Dict[str, bytes]:
    return ctx.target._serve_secret_request(
        ctx.request["policy"], ctx.request["requesting_policy"],
        ctx.request["secrets"])


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
