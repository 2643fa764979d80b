"""Request/reply channels over TLS sessions.

:class:`TLSConnection` (client) and :class:`TLSServer` (server) are the one
sealed request/reply channel every PALAEMON transport uses: REST, the
federation mesh and fail-over replication. Payloads cross the simulated
wire only in AEAD-sealed form under per-connection session keys; the
paper's "all communication is TLS with PFS" guarantee (§V-A) is therefore
checkable by scanning ``Network.wire_log``.

A wire record is ``{"session": session_id, "data": sealed}``. Anything
else a peer sends — a non-dict payload, an unknown session, a record that
fails AEAD verification, or an authentic one whose body does not decode —
is dropped like a TLS alert: it never crashes either end and never counts
as an answer. Bodies are pickles, but :func:`decode_record` admits only
the classes of :data:`WIRE_CLASSES`, so a record carries data, never code
(the Python documentation warns that unpickling untrusted data can run
arbitrary code).

Every client record seals a request id (``rid``) that grows by one per
record on its connection. The server keeps, per session, the highest id
it accepted and a bitmap of the :data:`REPLAY_WINDOW` ids below it, like
the DTLS anti-replay window (RFC 9147 §4.5.1, RFC 6347 §4.1.2.6): a
duplicate, or a record older than the window, is dropped before dispatch,
so a record copied off the wire cannot run its request a second time.

:meth:`TLSConnection.connect` registers the session on the server that
runs on the destination endpoint, and refuses an endpoint no running
server serves before any handshake, like a refused TCP connection. Each
connection runs one reader process: it opens every record arriving at
the client endpoint and wakes the request waiting for its request id, so
concurrent requests on one connection each get their own reply; any
other record is dropped as stale.

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

import io
import pickle
from collections import Counter, OrderedDict
from typing import Any, Callable, Dict, Generator, Optional

from repro import calibration
from repro.crypto.certificates import Certificate
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair, PublicKey
from repro.errors import (BadRequestError, CryptoError, NetworkError,
                          ReproError)
from repro.sim.core import Event
from repro.sim.network import Endpoint, Network, Site
from repro.sim.resources import StoreClosed
from repro.tls.handshake import TLSSession, perform_handshake

#: Most sessions a :class:`TLSServer` keeps; registering one more forgets
#: the least recently used.
MAX_SESSIONS = 1024

#: Request ids a session's anti-replay window remembers below the highest.
REPLAY_WINDOW = 64

_WINDOW_MASK = (1 << REPLAY_WINDOW) - 1


#: Every class a record or a replication batch may name, as (module,
#: name). The decoder refuses any other, so a record carries data and
#: never names code to run (builtin containers and scalars need no name).
#: Each class a member's fields name is a member too; a test walks the
#: field annotations to keep it so.
WIRE_CLASSES = frozenset((
    ("repro.crypto.signatures", "PublicKey"),
    ("repro.crypto.certificates", "Certificate"),
    ("repro.core.policy", "SecurityPolicy"),
    ("repro.core.policy", "ServiceSpec"),
    ("repro.core.policy", "PolicyBoardMember"),
    ("repro.core.policy", "BoardSpec"),
    ("repro.core.policy", "VolumeSpec"),
    ("repro.core.policy", "ImportSpec"),
    ("repro.core.policy", "VolumeImportSpec"),
    ("repro.core.secrets", "SecretSpec"),
    ("repro.core.secrets", "SecretKind"),
    ("repro.core.secrets", "SecretValue"),
    ("repro.core.service", "_ServiceState"),
    ("repro.core.service", "AppConfig"),
    ("repro.core.service", "VolumeGrant"),
    ("repro.tee.quoting", "Quote"),
    ("repro.tee.quoting", "Report"),
    ("repro.core.attestation", "AttestationEvidence"),
))

#: What decoding a malformed payload raises: the unpickler's errors, and
#: a wire class's own when it is built from the wrong arguments.
_MALFORMED = (pickle.UnpicklingError, EOFError, ValueError, TypeError,
              LookupError, AttributeError, OverflowError, RecursionError,
              ReproError)


class _WireUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        if (module, name) not in WIRE_CLASSES:
            raise pickle.UnpicklingError(f"{module}.{name} is not a wire "
                                         f"class")
        return super().find_class(module, name)


def _encode(payload: Any) -> bytes:
    return pickle.dumps(payload)


def decode_record(data: bytes) -> Any:
    """The value ``data`` encodes: the one decoder of every record and
    every replication batch. Raises :class:`BadRequestError` if ``data``
    does not decode, or names a class outside :data:`WIRE_CLASSES`."""
    try:
        return _WireUnpickler(io.BytesIO(data)).load()
    except _MALFORMED as exc:
        raise BadRequestError(
            f"record does not decode ({type(exc).__name__})") from None


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
        return decode_record(box.open(sealed))


def _open_record(channel: SecureChannel, session: TLSSession,
                 payload: Any) -> Any:
    """The opened body of a wire record for ``session``; ``None`` when the
    payload is not one (junk, another session, or a failed AEAD check).
    Raises :class:`BadRequestError` when an authentic body does not
    decode."""
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

    :meth:`connect` performs the handshake (latency + optional certificate
    verification) and registers the session; ``request`` sends one sealed
    request and waits for the reply the connection's reader hands it;
    ``close`` ends the connection.
    """

    def __init__(self, network: Network, client_endpoint: Endpoint,
                 server_endpoint: Endpoint, session: TLSSession) -> None:
        self.network = network
        self.client_endpoint = client_endpoint
        self.server_endpoint = server_endpoint
        self.session = session
        self.client_channel = SecureChannel(session, is_client=True)
        self._request_seq = 0
        self.stale_replies_dropped = 0
        self.closed = False
        #: Request id -> the event of the request waiting for that reply.
        self._replies: Dict[int, Event] = {}
        #: The reader's pending mailbox getter.
        self._getter: Optional[Event] = None
        network.simulator.process(
            self._read(), name=f"tls-reader-{client_endpoint.name}")

    @classmethod
    def connect(cls, network: Network, client_name: str, client_site: Site,
                server_endpoint: Endpoint, rng: DeterministicRandom,
                server_certificate: Optional[Certificate] = None,
                trusted_root: Optional[PublicKey] = None,
                client_certificate: Optional[Certificate] = None,
                telemetry=None,
                client_keys: Optional[KeyPair] = None,
                ) -> Generator[Event, Any, "TLSConnection"]:
        """Handshake, register the session on the server and build a
        connection; a simulation process.

        With no running server on ``server_endpoint`` it raises
        :class:`NetworkError` before the handshake, like a refused TCP
        connection. The connection sends from the endpoint
        ``client_name``; a live connection already on it is closed once
        the handshake succeeds. The endpoint's connection count is mixed
        into every handshake after its first, so a reconnect with the
        same ``rng`` cannot repeat an earlier session and run its records
        again. A ``client_certificate`` needs the ``client_keys`` behind
        it (see :func:`~repro.tls.handshake.perform_handshake`)."""
        server = server_endpoint.server
        if server is None:
            raise NetworkError(
                f"no server serves {server_endpoint.name!r}")
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
        server._register_session(session)
        if client_endpoint.connection is not None:
            client_endpoint.connection.close()
        connection = cls(network, client_endpoint, server_endpoint, session)
        client_endpoint.connection = connection
        return connection

    def _closed_error(self) -> NetworkError:
        return NetworkError(
            f"TLS connection from {self.client_endpoint.name!r} to "
            f"{self.server_endpoint.name!r} is closed")

    def request(self, payload: Any, size_bytes: int = 512,
                ) -> Generator[Event, Any, Any]:
        """Send one request and wait for the reply; returns the reply payload.

        Each request carries a sealed request id and the reply echoes it;
        the connection's reader wakes the request waiting for that id, so
        concurrent requests on one connection each get their own reply.
        Under retries, a stale or duplicated reply (the network may
        deliver twice, and a timed-out attempt's reply can arrive after
        the retry's request) is dropped instead of being mistaken for the
        answer. An interrupted request (a
        :meth:`Simulator.with_timeout` deadline) only forgets its id, so
        its late reply is dropped too. A request on a closed connection,
        or one still waiting when the connection or its endpoint closes,
        raises :class:`NetworkError`.
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
        reply = self._replies[rid] = simulator.event()
        try:
            return (yield reply)
        finally:
            self._replies.pop(rid, None)

    def _read(self) -> Generator[Event, Any, None]:
        """The reader: open each record on the client endpoint and wake
        the request waiting for its id; count any other as stale."""
        simulator = self.network.simulator
        while not self.closed:
            self._getter = self.client_endpoint.receive()
            try:
                message = yield self._getter
            except StoreClosed:  # the endpoint closed: so does the connection
                self.closed = True
                self._fail_waiting()
                return
            try:
                reply = _open_record(self.client_channel, self.session,
                                     message.payload)
            except BadRequestError:
                reply = None  # dropped as stale below
            yield simulator.timeout(calibration.TLS_RECORD_CRYPTO_SECONDS)
            if self.closed:
                return
            waiting = self._replies.pop(
                reply.get("rid") if isinstance(reply, dict) else None, None)
            if waiting is None:
                self.stale_replies_dropped += 1
            else:
                waiting.succeed(reply.get("body"))

    def _fail_waiting(self) -> None:
        """Fail every request still waiting for its reply."""
        for waiting in self._replies.values():
            waiting.fail(self._closed_error())
        self._replies.clear()

    def close(self) -> None:
        """End the connection; closing twice does nothing.

        Sends a sealed close record, without waiting for an answer,
        withdraws the reader's mailbox getter, and fails every request
        still waiting for its reply with :class:`NetworkError`.
        """
        if self.closed:
            return
        self.closed = True
        if self.client_endpoint.connection is self:
            self.client_endpoint.connection = None
        self.client_endpoint.inbox.cancel(self._getter)
        self._fail_waiting()
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
    ``not_authentic``, ``malformed``, ``replayed`` and ``too_old``.
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

    def _register_session(self, session: TLSSession) -> None:
        """Serve ``session``; :meth:`TLSConnection.connect` calls it after
        the handshake."""
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
            try:
                envelope = _open_record(server_channel, session, payload)
            except BadRequestError:
                self.records_dropped["malformed"] += 1
                continue
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
