"""TLS connections end, and a server's session table stays bounded.

A connection closes with a sealed close record and the server forgets its
session; connecting again from a client endpoint closes the connection
already on it; a server that meets clients which never close keeps at
most ``MAX_SESSIONS`` sessions, forgetting the least recently used.
"""

import pytest

from repro.core.rest import PalaemonRestClient
from repro.crypto.primitives import DeterministicRandom
from repro.errors import (DeadlineExceededError, NetworkError,
                          SimulationError)
from repro.sim.core import Simulator
from repro.sim.network import Network, Site
from repro.tls import channel
from repro.tls.channel import SecureChannel, TLSConnection, TLSServer

from tests.core.conftest import Deployment
from tests.core.test_sealed_transports import rest_call, rest_stack


def echo_stack(seed=b"lifecycle", jitter_fraction=0.05):
    sim = Simulator()
    rng = DeterministicRandom(seed)
    net = Network(sim, rng.fork(b"net"), jitter_fraction=jitter_fraction)
    server = TLSServer(net, net.endpoint("server"),
                       lambda request, _session: {"echo": request})
    server.start()
    return sim, rng, net, server


def connect(sim, rng, net, server, name="client", label=b""):
    """A connection from endpoint ``name``; ``label`` tells apart the
    handshakes of several connections from one endpoint."""
    def main():
        connection = yield sim.process(TLSConnection.connect(
            net, name, Site.SAME_DC, server.endpoint,
            rng.fork(name.encode() + label)))
        return connection

    return sim.run_process(main())


def rest_connect(deployment, network, server, label):
    def main():
        client = yield from PalaemonRestClient.connect(
            network, deployment.client, server, Site.SAME_DC,
            DeterministicRandom(label),
            trusted_root=deployment.ca.root_public_key)
        return client

    return deployment.simulator.run_process(main())


def request(sim, connection, payload):
    def main():
        reply = yield sim.process(connection.request(payload))
        return reply

    return sim.run_process(main())


class TestRestSessions:
    def test_reconnect_cycles_keep_one_session(self):
        deployment = Deployment(seed=b"reconnect-cycles")
        policy = deployment.make_policy(with_board=False)
        deployment.palaemon.create_policy(policy, deployment.client.certificate)
        network, server, _first = rest_stack(deployment)
        for cycle in range(1000):
            client = rest_connect(deployment, network, server,
                                  b"cycle-%d" % cycle)
            rest_call(deployment, client, "tag.update", policy="ml_policy",
                      service="ml_app", tag=cycle.to_bytes(32, "big"))
        deployment.simulator.run()
        assert len(server._server._sessions) == 1
        assert deployment.palaemon.get_tag_instant(
            "ml_policy", "ml_app") == (999).to_bytes(32, "big")
        assert server._server.records_dropped == {}
        # Only the live connection's reader waits on the endpoint.
        assert len(client.connection.client_endpoint.inbox._getters) <= 1

    def test_rest_client_close_forgets_the_session(self):
        deployment = Deployment(seed=b"rest-close")
        _network, server, client = rest_stack(deployment)
        client.close()
        deployment.simulator.run()
        assert len(server._server._sessions) == 0
        with pytest.raises(NetworkError, match="closed"):
            rest_call(deployment, client, "instance.describe")


class TestConnect:
    @pytest.mark.parametrize("started", [False, True])
    def test_endpoint_no_running_server_serves_is_refused(self, started):
        """Before any handshake time passes, like a refused TCP
        connection; a stopped server refuses like one never started."""
        sim, rng, net, _echo = echo_stack()
        server = TLSServer(net, net.endpoint("nobody"),
                           lambda request, _session: request)
        if started:
            server.start()
            server.stop()

        def main():
            start = sim.now
            try:
                yield sim.process(TLSConnection.connect(
                    net, "client", Site.SAME_DC, server.endpoint,
                    rng.fork(b"refused")))
            except NetworkError:
                return sim.now - start
            return "connected"

        assert sim.run_process(main()) == 0.0
        assert len(server._sessions) == 0


class TestClose:
    def test_request_on_a_closed_connection_raises(self):
        sim, rng, net, server = echo_stack()
        connection = connect(sim, rng, net, server)
        assert request(sim, connection, 1) == {"echo": 1}
        connection.close()
        connection.close()  # a second close sends nothing
        sim.run()
        assert len(server._sessions) == 0
        with pytest.raises(NetworkError, match="closed"):
            request(sim, connection, 2)
        assert server.requests_served == 1
        assert server.records_dropped == {}

    def test_request_on_a_superseded_connection_raises(self):
        sim, rng, net, server = echo_stack()
        old = connect(sim, rng, net, server)
        new = connect(sim, rng, net, server, label=b"again")
        assert old.closed and old.client_endpoint.connection is new
        with pytest.raises(NetworkError, match="closed"):
            request(sim, old, 1)
        assert request(sim, new, 2) == {"echo": 2}
        assert list(server._sessions) == [new.session.session_id]

    def test_request_in_flight_fails_when_a_reconnect_supersedes_it(self):
        sim, rng, net, _echo = echo_stack()

        def slow_echo(request, _session):
            yield sim.timeout(1.0)  # longer than the new handshake
            return {"echo": request}

        server = TLSServer(net, net.endpoint("slow-server"), slow_echo)
        server.start()
        old = connect(sim, rng, net, server)
        outcome = {}

        def in_flight():
            try:
                outcome["old"] = yield sim.process(old.request(1))
            except NetworkError:
                outcome["old"] = "closed"

        def main():
            waiting = sim.process(in_flight())
            new = yield sim.process(TLSConnection.connect(
                net, "client", Site.SAME_DC, server.endpoint, rng.fork(b"n")))
            yield waiting
            outcome["new"] = yield sim.process(new.request(2))

        sim.run_process(main())
        assert outcome == {"old": "closed", "new": {"echo": 2}}

    def test_record_after_the_close_record_is_an_unknown_session(self):
        sim, rng, net, server = echo_stack()
        connection = connect(sim, rng, net, server)
        request(sim, connection, 1)
        connection.close()
        sim.run()
        # A record of the closed session, sealed under its key and never
        # seen by the server, arrives after the close record.
        connection.client_endpoint.send(server.endpoint, {
            "session": connection.session.session_id,
            "data": connection.client_channel.seal({"rid": 99, "body": 2})})
        sim.run()
        assert server.records_dropped == {"unknown_session": 1}
        assert server.requests_served == 1


class TestReconnectWithTheSameRng:
    """A client that closes and connects again from the same endpoint with
    the same ``rng`` gets a new session: a record copied off the closed
    connection does not run on the new one, and the client's own first
    request there is not mistaken for a replay."""

    def test_copied_record_does_not_run_on_the_reconnected_session(self):
        sim, rng, net, _echo = echo_stack(seed=b"reconnect-same-rng")
        net.wire_log_enabled = True
        served = []

        def store_tag(request, _session):
            served.append(request["tag"])
            return {"stored": request["tag"]}

        server = TLSServer(net, net.endpoint("tags"), store_tag)
        server.start()

        def connect_again():
            def main():
                connection = yield sim.process(TLSConnection.connect(
                    net, "client", Site.SAME_DC, server.endpoint,
                    rng.fork(b"conn")))
                return connection

            return sim.run_process(main())

        first = connect_again()
        assert request(sim, first, {"tag": "old"}) == {"stored": "old"}
        copied = [payload for _time, _source, destination, payload
                  in net.wire_log if destination == "tags"][-1]
        first.close()
        sim.run()
        second = connect_again()
        assert second.session.session_id != first.session.session_id

        attacker = net.endpoint("attacker")
        attacker.send(server.endpoint, copied, reply_to=attacker)
        sim.run()
        assert served == ["old"]
        assert request(sim, second, {"tag": "new"}) == {"stored": "new"}
        assert served == ["old", "new"]
        assert server.records_dropped == {"unknown_session": 1}


class TestSessionBound:
    def test_table_stays_at_the_bound_and_keeps_the_recent_session(
            self, monkeypatch):
        monkeypatch.setattr(channel, "MAX_SESSIONS", 4)
        sim, rng, net, server = echo_stack()
        first = connect(sim, rng, net, server, name="client-0")
        for index in range(1, 10):
            connect(sim, rng, net, server, name=f"client-{index}")
            # client-0 keeps talking, so it is never the least recently
            # used session.
            assert request(sim, first, index) == {"echo": index}
            assert len(server._sessions) <= 4
        assert len(server._sessions) == 4
        assert first.session.session_id in server._sessions
        # A client whose session was forgotten connects again.
        again = connect(sim, rng, net, server, name="client-1",
                        label=b"again")
        assert request(sim, again, "again") == {"echo": "again"}


class TestOneConnectionPerEndpoint:
    """Two connections on one endpoint used to read and drop each other's
    replies, so one request waited for ever; now connecting again closes
    the first connection, and a request on it fails at once."""

    @pytest.mark.parametrize("seed", range(30))
    def test_no_reply_is_lost(self, seed):
        sim, rng, net, server = echo_stack(seed=b"two-conn-%d" % seed,
                                           jitter_fraction=0.5)
        outcome = {}

        def use(connection, tag):
            try:
                outcome[tag] = yield sim.process(connection.request(tag))
            except NetworkError:
                outcome[tag] = "closed"

        def main():
            first = yield sim.process(TLSConnection.connect(
                net, "client", Site.SAME_DC, server.endpoint, rng.fork(b"a")))
            second = yield sim.process(TLSConnection.connect(
                net, "client", Site.SAME_DC, server.endpoint, rng.fork(b"b")))
            yield sim.all_of([sim.process(use(first, "first")),
                              sim.process(use(second, "second"))])

        try:
            sim.run_process(main())
        except SimulationError:
            pytest.fail("a request waited for a reply that never came")
        assert outcome == {"first": "closed", "second": {"echo": "second"}}


class TestConcurrentRequestsOnOneConnection:
    """Concurrent requests on one connection share its reader, which wakes
    each request with its own reply, so none waits for ever."""

    @pytest.mark.parametrize("concurrency", [2, 8])
    @pytest.mark.parametrize("seed", range(30))
    def test_each_request_gets_its_own_reply(self, seed, concurrency):
        sim, rng, net, server = echo_stack(
            seed=b"one-conn-%d-%d" % (concurrency, seed),
            jitter_fraction=0.5)
        connection = connect(sim, rng, net, server)
        replies = {}

        def use(tag):
            replies[tag] = yield sim.process(connection.request(tag))

        def main():
            yield sim.all_of([sim.process(use(tag))
                              for tag in range(concurrency)])

        try:
            sim.run_process(main())
        except SimulationError:
            pytest.fail("a request waited for a reply that never came")
        assert replies == {tag: {"echo": tag} for tag in range(concurrency)}
        assert connection.stale_replies_dropped == 0
        assert server.requests_served == concurrency

    def test_reply_no_request_waits_for_is_dropped(self):
        """An authentic reply whose id no waiting request holds is dropped
        and counted, and the waiting requests still get their own."""
        sim, rng, net, server = echo_stack(seed=b"one-conn-orphan")
        connection = connect(sim, rng, net, server)
        orphan = SecureChannel(connection.session, is_client=False).seal(
            {"rid": 99, "body": "orphan"})
        replies = {}

        def use(tag):
            replies[tag] = yield sim.process(connection.request(tag))

        def main():
            users = [sim.process(use(tag)) for tag in range(2)]
            server.endpoint.send(connection.client_endpoint,
                                 {"session": connection.session.session_id,
                                  "data": orphan})
            yield sim.all_of(users)

        sim.run_process(main())
        assert replies == {0: {"echo": 0}, 1: {"echo": 1}}
        assert connection.stale_replies_dropped == 1

    def test_late_reply_of_a_timed_out_request_is_dropped(self):
        """A request abandoned at its deadline forgets its id, so its late
        reply is dropped as stale while the other request still waits."""
        sim = Simulator()
        rng = DeterministicRandom(b"one-conn-deadline")
        net = Network(sim, rng.fork(b"net"))

        def handler(request, _session):
            if request == "slow":
                yield sim.timeout(1.0)
            return {"echo": request}

        server = TLSServer(net, net.endpoint("server"), handler)
        server.start()
        connection = connect(sim, rng, net, server)
        outcome = {}

        def slow():
            try:
                yield sim.with_timeout(
                    sim.process(connection.request("slow")), 0.5)
            except DeadlineExceededError:
                outcome["slow"] = "deadline"

        def fast():
            yield sim.timeout(0.1)  # the server is busy with "slow" by now
            outcome["fast"] = yield sim.process(connection.request("fast"))

        def main():
            yield sim.all_of([sim.process(slow()), sim.process(fast())])

        sim.run_process(main())
        assert outcome == {"slow": "deadline", "fast": {"echo": "fast"}}
        assert server.requests_served == 2
        assert connection.stale_replies_dropped == 1

    def test_deadline_while_the_other_reply_is_opened(self):
        """A request whose deadline falls while the reader opens the other
        request's reply leaves that reply to the other request."""
        def run(deadline=None):
            sim, rng, net, server = echo_stack(seed=b"one-conn-held-reply",
                                               jitter_fraction=0.0)
            connection = connect(sim, rng, net, server)
            start = sim.now
            outcome = {}

            def slow():
                # Sent first, but its large request reaches the server
                # after the small one, so the other reply arrives first.
                attempt = sim.process(connection.request(
                    "slow", size_bytes=10_000_000))
                try:
                    outcome["slow"] = yield (
                        attempt if deadline is None
                        else sim.with_timeout(attempt, deadline))
                except DeadlineExceededError:
                    outcome["slow"] = "deadline"

            def fast():
                outcome["fast"] = yield sim.process(connection.request("fast"))
                outcome["fast_at"] = sim.now - start

            def main():
                yield sim.all_of([sim.process(slow()), sim.process(fast())])

            try:
                sim.run_process(main())
            except SimulationError:
                pytest.fail("a request waited for a reply that never came")
            return outcome

        crypto = channel.calibration.TLS_RECORD_CRYPTO_SECONDS
        first = run()
        assert first["slow"] == {"echo": "slow"}
        assert first["fast"] == {"echo": "fast"}
        received = first["fast_at"] - crypto  # when the reader took it
        outcome = run(deadline=received + crypto / 2)
        assert outcome["slow"] == "deadline"
        assert outcome["fast"] == {"echo": "fast"}
