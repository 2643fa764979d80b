"""Request/reply channels over TLS sessions.

:class:`TLSConnection` (client) and :class:`TLSServer` (server) are the one
sealed request/reply channel every PALAEMON transport uses: REST, the
federation mesh and fail-over replication. Payloads cross the simulated
wire only in AEAD-sealed form under per-connection session keys; the
paper's "all communication is TLS with PFS" guarantee (§V-A) is therefore
checkable by scanning ``Network.wire_log``.

A wire record is ``{"session": session_id, "data": sealed}``. Anything
else a peer sends — a non-dict payload, an unknown session, a record that
fails AEAD verification — is dropped like a TLS alert: it never crashes
either end and never counts as an answer.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Generator, Optional

from repro import calibration
from repro.crypto.certificates import Certificate
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair, PublicKey
from repro.errors import CryptoError
from repro.sim.core import Event, ProcessInterrupt
from repro.sim.network import Endpoint, Network, Site
from repro.tls.handshake import TLSSession, perform_handshake


def _encode(payload: Any) -> bytes:
    return pickle.dumps(payload)


def _decode(data: bytes) -> Any:
    return pickle.loads(data)


class SecureChannel:
    """One direction of an established TLS connection (seal/open helpers)."""

    def __init__(self, session: TLSSession, is_client: bool) -> None:
        self._session = session
        self._is_client = is_client

    def seal(self, payload: Any) -> bytes:
        box = (self._session.client_box if self._is_client
               else self._session.server_box)
        return box.seal(_encode(payload))

    def open(self, sealed: bytes) -> Any:
        box = (self._session.server_box if self._is_client
               else self._session.client_box)
        return _decode(box.open(sealed))


def _open_record(channel: SecureChannel, session: TLSSession,
                 payload: Any) -> Any:
    """The opened body of a wire record for ``session``; ``None`` when the
    payload is not one (junk, another session, or a failed AEAD check)."""
    if (not isinstance(payload, dict)
            or payload.get("session") != session.session_id
            or not isinstance(payload.get("data"), bytes)):
        return None
    try:
        return channel.open(payload["data"])
    except CryptoError:
        return None


class TLSConnection:
    """A client-side TLS connection to a server endpoint.

    Construction performs the handshake (latency + optional certificate
    verification); ``request`` sends one sealed request and waits for the
    sealed reply.
    """

    def __init__(self, network: Network, client_endpoint: Endpoint,
                 server_endpoint: Endpoint, session: TLSSession,
                 rng: DeterministicRandom) -> None:
        self.network = network
        self.client_endpoint = client_endpoint
        self.server_endpoint = server_endpoint
        self.session = session
        self._rng = rng
        self.client_channel = SecureChannel(session, is_client=True)
        self.server_channel = SecureChannel(session, is_client=False)
        self.requests_sent = 0
        self._request_seq = 0
        self.stale_replies_dropped = 0

    @classmethod
    def connect(cls, network: Network, client_name: str, client_site: Site,
                server_endpoint: Endpoint, rng: DeterministicRandom,
                server_certificate: Optional[Certificate] = None,
                trusted_root: Optional[PublicKey] = None,
                client_certificate: Optional[Certificate] = None,
                telemetry=None,
                client_keys: Optional[KeyPair] = None,
                ) -> Generator[Event, Any, "TLSConnection"]:
        """Handshake and build a connection; a simulation process.

        A ``client_certificate`` needs the ``client_keys`` behind it (see
        :func:`~repro.tls.handshake.perform_handshake`)."""
        session = yield network.simulator.process(perform_handshake(
            network.simulator, rng.fork(b"handshake:" + client_name.encode()),
            client_site, server_endpoint.site,
            server_certificate=server_certificate,
            trusted_root=trusted_root,
            client_certificate=client_certificate,
            telemetry=telemetry,
            client_keys=client_keys,
        ))
        client_endpoint = network.endpoint(client_name, client_site)
        return cls(network, client_endpoint, server_endpoint, session, rng)

    def request(self, payload: Any, size_bytes: int = 512,
                ) -> Generator[Event, Any, Any]:
        """Send one request and wait for the reply; returns the reply payload.

        Each request carries a sealed request id and the reply echoes it:
        under retries, a stale or duplicated reply (the network may deliver
        twice, and a timed-out attempt's reply can arrive after the retry's
        request) is discarded instead of being mistaken for the answer.
        An interrupted request (a :meth:`Simulator.with_timeout` deadline)
        cancels its mailbox getter so the abandoned attempt cannot steal
        the reply meant for the retry. Records that are not authentic
        replies on this session are dropped the same way.
        """
        simulator = self.network.simulator
        self._request_seq += 1
        rid = self._request_seq
        sealed = self.client_channel.seal({"rid": rid, "body": payload})
        yield simulator.timeout(calibration.TLS_RECORD_CRYPTO_SECONDS)
        self.client_endpoint.send(self.server_endpoint,
                                  {"session": self.session.session_id,
                                   "data": sealed},
                                  size_bytes=size_bytes,
                                  reply_to=self.client_endpoint)
        self.requests_sent += 1
        while True:
            pending = self.client_endpoint.receive()
            try:
                message = yield pending
            except ProcessInterrupt:
                self.client_endpoint.inbox.cancel(pending)
                raise
            yield simulator.timeout(calibration.TLS_RECORD_CRYPTO_SECONDS)
            reply = _open_record(self.client_channel, self.session,
                                 message.payload)
            if isinstance(reply, dict) and reply.get("rid") == rid:
                return reply.get("body")
            self.stale_replies_dropped += 1


class TLSServer:
    """Server-side dispatcher: one handler per connection-less request.

    PALAEMON's REST API, federation peers and fail-over backups use this.
    Sessions are tracked by id so the server can unseal with the right key
    (only registered sessions are served); the handler is a callable
    ``(request_payload, session) -> reply`` or a generator process for
    handlers that consume simulated time.
    """

    def __init__(self, network: Network, endpoint: Endpoint,
                 handler: Callable[[Any, TLSSession], Any]) -> None:
        self.network = network
        self.endpoint = endpoint
        self.handler = handler
        self._sessions: dict = {}
        self.requests_served = 0
        self._running = False

    def register_session(self, session: TLSSession) -> None:
        self._sessions[session.session_id] = session

    def start(self) -> None:
        """Begin serving (spawns the accept loop as a process)."""
        if self._running:
            return
        self._running = True
        self.network.simulator.process(self._serve_loop(),
                                       name=f"tls-server-{self.endpoint.name}")

    def stop(self) -> None:
        self._running = False
        self.endpoint.close()

    def _serve_loop(self) -> Generator[Event, Any, None]:
        from repro.sim.resources import StoreClosed

        simulator = self.network.simulator
        while self._running:
            try:
                message = yield self.endpoint.receive()
            except StoreClosed:
                return
            payload = message.payload
            session_id = (payload.get("session")
                          if isinstance(payload, dict) else None)
            session = (self._sessions.get(session_id)
                       if isinstance(session_id, bytes) else None)
            if session is None:
                continue  # junk or unknown session: drop, like a TLS alert
            server_channel = SecureChannel(session, is_client=False)
            envelope = _open_record(server_channel, session, payload)
            if not isinstance(envelope, dict) or "rid" not in envelope:
                continue  # failed AEAD or not a request record: drop
            yield simulator.timeout(calibration.TLS_RECORD_CRYPTO_SECONDS)
            result = self.handler(envelope.get("body"), session)
            if hasattr(result, "__next__"):
                result = yield simulator.process(result)
            sealed = server_channel.seal({"rid": envelope["rid"],
                                          "body": result})
            self.requests_served += 1
            # Size the reply by its sealed record, so the latency model
            # reflects what the reply actually carries.
            self.endpoint.send(message.reply_to,
                               {"session": session.session_id,
                                "data": sealed},
                               size_bytes=len(sealed))
