"""A network front-end for the PALAEMON service (its REST/TLS API, Fig 4).

The core :class:`~repro.core.service.PalaemonService` is an in-process
object; this module puts it behind a :class:`~repro.tls.channel.TLSServer`
so clients reach it over the simulated network, the way real clients reach
PALAEMON: every request rides an attested TLS session, policy CRUD carries
the client certificate, and tag traffic flows over the runtime's original
attestation connection.

Request shape (a dict, playing the role of a JSON body):

    {"route": "policy.create", ...route-specific fields...}

The route table lives in the :class:`~repro.core.dispatch.
OperationRegistry` (rendered into ``docs/API.md``); this module is a thin
codec — it takes the client certificate from the TLS session (never from
the request body, which any client can fill) and hands the request to the
service's :class:`~repro.core.dispatch.Dispatcher`, which runs the shared
middleware pipeline (serving check, auth, admission control, telemetry,
uniform error mapping) for every transport.

Failures never raise through the TLS session: every error becomes a
structured reply ``{"error": message, "kind": ExceptionClass, "code":
snake_case_code}`` — including programming errors inside a handler, which
map to ``code="internal"`` — and is counted in the instance's
``palaemon_dispatch_errors_total`` metric by route, transport, and code.
The client re-raises it as the typed error with
:func:`~repro.core.dispatch.decode_reply`.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from repro.core.client import PalaemonClient
from repro.core.dispatch import decode_reply
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom
from repro.sim.core import Event, ProcessInterrupt
from repro.sim.network import Endpoint, Network, Site
from repro.tls.channel import TLSConnection, TLSServer
from repro.tls.handshake import TLSSession


class PalaemonRestServer:
    """Exposes a PALAEMON instance over TLS on the simulated network."""

    def __init__(self, service: PalaemonService, network: Network,
                 site: Site = Site.SAME_RACK) -> None:
        self.service = service
        self.network = network
        self.endpoint: Endpoint = network.endpoint(
            f"{service.name}-rest", site)
        self._server = TLSServer(network, self.endpoint, self._handle)
        self._server.start()

    def register_session(self, session: TLSSession) -> None:
        self._server.register_session(session)

    def stop(self) -> None:
        self._server.stop()

    # -- codec -------------------------------------------------------------

    def _handle(self, request: Any, session: TLSSession) -> Any:
        return self.service.dispatcher.handle(
            request, transport="rest",
            certificate=session.client_certificate)


class PalaemonRestClient:
    """Client-side: TLS connection + typed request helpers."""

    def __init__(self, connection: TLSConnection, telemetry=None) -> None:
        self.connection = connection
        #: Optional telemetry for client-observed latencies; defaults to
        #: the no-op sink so benchmarks pay nothing.
        from repro.obs.telemetry import NULL_TELEMETRY

        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    @classmethod
    def connect(cls, network: Network, client: PalaemonClient,
                server: PalaemonRestServer, client_site: Site,
                rng: DeterministicRandom, trusted_root=None,
                ) -> Generator[Event, Any, "PalaemonRestClient"]:
        """Handshake (optionally verifying the instance's CA certificate)."""
        connection = yield network.simulator.process(TLSConnection.connect(
            network, f"{client.name}-conn", client_site, server.endpoint,
            rng, server_certificate=server.service.certificate,
            trusted_root=trusted_root,
            client_certificate=client.certificate,
            client_keys=client.key_pair,
            telemetry=server.service.telemetry))
        server.register_session(connection.session)
        return cls(connection)

    def close(self) -> None:
        """End the connection (see :meth:`TLSConnection.close`)."""
        self.connection.close()

    def call(self, route: str, **fields) -> Generator[Event, Any, Any]:
        """One request/response; raises on error replies.

        Interruption (a :meth:`Simulator.with_timeout` deadline on this
        call) cascades into the underlying TLS request so the abandoned
        attempt releases its mailbox getter instead of stealing the next
        reply.
        """
        payload = {"route": route}
        payload.update(fields)
        simulator = self.connection.network.simulator
        started = simulator.now
        inner = simulator.process(self.connection.request(payload),
                                  name=f"rest-request-{route}")
        try:
            reply = yield inner
        except ProcessInterrupt:
            if not inner.triggered:
                inner.interrupt("caller abandoned the request")
            raise
        self.telemetry.observe("palaemon_rest_client_seconds",
                               simulator.now - started, route=route)
        return decode_reply(reply)
