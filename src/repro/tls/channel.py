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

Every client record seals a request id (``rid``) that grows by one per
record on its connection. The server keeps, per session, the highest id
it accepted and a bitmap of the :data:`REPLAY_WINDOW` ids below it, like
the DTLS anti-replay window (RFC 9147 §4.5.1, RFC 6347 §4.1.2.6): a
duplicate, or a record older than the window, is dropped before dispatch,
so a record copied off the wire cannot run its request a second time.

A connection ends with a close record, which the client sends without
waiting for an answer, like TLS ``close_notify`` (RFC 8446 §6.1); the
server forgets the session when it opens it. A client endpoint carries
one connection at a time, the way one socket address carries one TCP
connection: connecting again from it closes the previous connection, and
a request on a closed connection raises :class:`NetworkError`. A server
keeps at most :data:`MAX_SESSIONS` sessions and forgets the least
recently used one past that, for clients that vanish without closing.
"""

from __future__ import annotations

import pickle
from collections import Counter, OrderedDict
from typing import Any, Callable, Dict, Generator, Optional

from repro import calibration
from repro.crypto.certificates import Certificate
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair, PublicKey
from repro.errors import CryptoError, NetworkError
from repro.sim.core import Event, ProcessInterrupt
from repro.sim.network import Endpoint, Network, Site
from repro.tls.handshake import TLSSession, perform_handshake

#: Most sessions a :class:`TLSServer` keeps; registering one more forgets
#: the least recently used.
MAX_SESSIONS = 1024

#: Request ids a session's anti-replay window remembers below the highest.
REPLAY_WINDOW = 64

_WINDOW_MASK = (1 << REPLAY_WINDOW) - 1


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
    sealed reply; ``close`` ends the connection.
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
        self.closed = False
        #: Request id -> the mailbox getter that request waits on, or
        #: ``None`` while it is busy with a record, for every request
        #: still waiting for its reply.
        self._waiting: Dict[int, Optional[Event]] = {}
        #: Replies another request of this connection received, by id.
        self._handed: Dict[int, Any] = {}

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

        The connection sends from the endpoint ``client_name``; a live
        connection already on it is closed once the handshake succeeds.
        The endpoint's connection count is mixed into every handshake
        after its first, so a reconnect with the same ``rng`` cannot
        repeat an earlier session and run its records again. A
        ``client_certificate`` needs the ``client_keys`` behind it (see
        :func:`~repro.tls.handshake.perform_handshake`)."""
        client_endpoint = network.endpoint(client_name, client_site)
        label = b"handshake:" + client_name.encode()
        if client_endpoint.connections:
            label += b"\x00%d" % client_endpoint.connections
        client_endpoint.connections += 1
        session = yield network.simulator.process(perform_handshake(
            network.simulator, rng.fork(label),
            client_site, server_endpoint.site,
            server_certificate=server_certificate,
            trusted_root=trusted_root,
            client_certificate=client_certificate,
            telemetry=telemetry,
            client_keys=client_keys,
        ))
        if client_endpoint.connection is not None:
            client_endpoint.connection.close()
        connection = cls(network, client_endpoint, server_endpoint, session,
                         rng)
        client_endpoint.connection = connection
        return connection

    def _closed_error(self) -> NetworkError:
        return NetworkError(
            f"TLS connection from {self.client_endpoint.name!r} to "
            f"{self.server_endpoint.name!r} is closed")

    def request(self, payload: Any, size_bytes: int = 512,
                ) -> Generator[Event, Any, Any]:
        """Send one request and wait for the reply; returns the reply payload.

        Each request carries a sealed request id and the reply echoes it:
        under retries, a stale or duplicated reply (the network may deliver
        twice, and a timed-out attempt's reply can arrive after the retry's
        request) is discarded instead of being mistaken for the answer.
        Concurrent requests on one connection share its mailbox, so a
        request that receives another waiting request's reply hands it
        to that request, also when a deadline interrupts it while it
        holds that reply. An interrupted request (a
        :meth:`Simulator.with_timeout` deadline) cancels its mailbox getter
        so the abandoned attempt cannot steal the reply meant for the
        retry. Records that are not authentic
        replies on this session are dropped the same way. A request on a
        closed connection, or one still waiting when the connection
        closes, raises :class:`NetworkError`.
        """
        if self.closed:
            raise self._closed_error()
        simulator = self.network.simulator
        self._request_seq += 1
        rid = self._request_seq
        sealed = self.client_channel.seal({"rid": rid, "body": payload})
        yield simulator.timeout(calibration.TLS_RECORD_CRYPTO_SECONDS)
        if self.closed:
            raise self._closed_error()
        self.client_endpoint.send(self.server_endpoint,
                                  {"session": self.session.session_id,
                                   "data": sealed},
                                  size_bytes=size_bytes,
                                  reply_to=self.client_endpoint)
        self.requests_sent += 1
        self._waiting[rid] = None
        try:
            while True:
                if self.closed:
                    raise self._closed_error()
                if rid in self._handed:
                    return self._handed[rid]
                pending = self.client_endpoint.receive()
                self._waiting[rid] = pending
                try:
                    message = yield pending
                except ProcessInterrupt:
                    self.client_endpoint.inbox.cancel(pending)
                    raise
                finally:
                    self._waiting[rid] = None
                if message is None:
                    continue  # woken by a hand-off: the reply is handed
                reply = _open_record(self.client_channel, self.session,
                                     message.payload)
                reply_rid = (reply.get("rid") if isinstance(reply, dict)
                             else None)
                try:
                    yield simulator.timeout(
                        calibration.TLS_RECORD_CRYPTO_SECONDS)
                except ProcessInterrupt:
                    # Abandoned while holding a record: a reply another
                    # request waits for still reaches it.
                    if reply_rid != rid and reply_rid in self._waiting:
                        self._hand_off(reply_rid, reply.get("body"))
                    raise
                if reply_rid == rid:
                    return reply.get("body")
                if reply_rid not in self._waiting:
                    self.stale_replies_dropped += 1
                    continue
                self._hand_off(reply_rid, reply.get("body"))
        finally:
            del self._waiting[rid]
            self._handed.pop(rid, None)

    def _hand_off(self, rid: int, body: Any) -> None:
        """Give the reply ``body`` to the waiting request ``rid``, and wake
        that request if it waits on the mailbox."""
        self._handed[rid] = body
        other = self._waiting[rid]
        if other is not None and self.client_endpoint.inbox.cancel(other):
            other.succeed(None)

    def close(self) -> None:
        """End the connection; closing twice does nothing.

        Sends a sealed close record, without waiting for an answer, and
        fails every request still waiting for its reply with
        :class:`NetworkError`.
        """
        if self.closed:
            return
        self.closed = True
        if self.client_endpoint.connection is self:
            self.client_endpoint.connection = None
        for pending in self._waiting.values():
            if (pending is not None
                    and self.client_endpoint.inbox.cancel(pending)):
                pending.fail(self._closed_error())
        self._request_seq += 1
        sealed = self.client_channel.seal({"rid": self._request_seq,
                                           "close": True})
        self.client_endpoint.send(self.server_endpoint,
                                  {"session": self.session.session_id,
                                   "data": sealed},
                                  size_bytes=len(sealed))


class _ServerSession:
    """A server's state for one session: its keys and anti-replay window.

    It lives in the server's table, never on the :class:`TLSSession` the
    client also holds.
    """

    __slots__ = ("session", "highest", "seen")

    def __init__(self, session: TLSSession) -> None:
        self.session = session
        #: Highest request id accepted so far.
        self.highest = 0
        #: Bit ``i`` set: request id ``highest - i`` was accepted.
        self.seen = 0

    def admit(self, rid: int) -> Optional[str]:
        """Mark ``rid`` accepted; the drop reason instead if it is a
        duplicate or below the window."""
        offset = self.highest - rid
        if offset < 0:
            self.seen = ((self.seen << -offset) | 1) & _WINDOW_MASK
            self.highest = rid
            return None
        if offset >= REPLAY_WINDOW:
            return "too_old"
        if self.seen >> offset & 1:
            return "replayed"
        self.seen |= 1 << offset
        return None


class TLSServer:
    """Server-side dispatcher: one handler per connection-less request.

    PALAEMON's REST API, federation peers and fail-over backups use this.
    Sessions are tracked by id so the server can unseal with the right key
    (only registered sessions are served); the handler is a callable
    ``(request_payload, session) -> reply`` or a generator process for
    handlers that consume simulated time. Records the server refuses are
    counted by reason in ``records_dropped``: ``unknown_session``,
    ``not_authentic``, ``replayed`` and ``too_old``.
    """

    def __init__(self, network: Network, endpoint: Endpoint,
                 handler: Callable[[Any, TLSSession], Any]) -> None:
        self.network = network
        self.endpoint = endpoint
        self.handler = handler
        #: Session id -> state, least recently used first.
        self._sessions: OrderedDict[bytes, _ServerSession] = OrderedDict()
        self.requests_served = 0
        self.records_dropped: Counter = Counter()
        self._running = False

    def register_session(self, session: TLSSession) -> None:
        self._sessions[session.session_id] = _ServerSession(session)
        if len(self._sessions) > MAX_SESSIONS:
            self._sessions.popitem(last=False)

    def start(self) -> None:
        """Begin serving (spawns the accept loop as a process).

        An endpoint has at most one running server: starting a second one
        on it raises :class:`NetworkError` until the first one stops.
        """
        if self._running:
            return
        if self.endpoint.server is not None:
            raise NetworkError(
                f"endpoint {self.endpoint.name!r} already has a running "
                f"server")
        self.endpoint.server = self
        self._running = True
        self.network.simulator.process(self._serve_loop(),
                                       name=f"tls-server-{self.endpoint.name}")

    def stop(self) -> None:
        self._running = False
        if self.endpoint.server is self:
            self.endpoint.server = None
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
            state = (self._sessions.get(session_id)
                     if isinstance(session_id, bytes) else None)
            if state is None:
                # Junk or unknown session: drop, like a TLS alert.
                self.records_dropped["unknown_session"] += 1
                continue
            session = state.session
            server_channel = SecureChannel(session, is_client=False)
            envelope = _open_record(server_channel, session, payload)
            rid = envelope.get("rid") if isinstance(envelope, dict) else None
            if not isinstance(rid, int):
                self.records_dropped["not_authentic"] += 1
                continue
            refused = state.admit(rid)
            if refused is not None:
                self.records_dropped[refused] += 1
                continue
            if "close" in envelope:
                del self._sessions[session_id]
                continue
            self._sessions.move_to_end(session_id)
            yield simulator.timeout(calibration.TLS_RECORD_CRYPTO_SECONDS)
            result = self.handler(envelope.get("body"), session)
            if hasattr(result, "__next__"):
                result = yield simulator.process(result)
            sealed = server_channel.seal({"rid": rid, "body": result})
            self.requests_served += 1
            # Size the reply by its sealed record, so the latency model
            # reflects what the reply actually carries.
            self.endpoint.send(message.reply_to,
                               {"session": session.session_id,
                                "data": sealed},
                               size_bytes=len(sealed))
