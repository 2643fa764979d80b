"""Concurrency tests for the TLS server: many clients, one server —
including hostile clients sending malformed requests at a real PALAEMON
REST front-end, which must answer with typed codes and keep serving."""

import pytest

from repro.crypto.primitives import DeterministicRandom
from repro.sim.core import Simulator
from repro.sim.network import Network, Site
from repro.tls.channel import TLSConnection, TLSServer


def make_stack(handler):
    sim = Simulator()
    rng = DeterministicRandom(b"tls-concurrency")
    net = Network(sim, rng.fork(b"net"))
    endpoint = net.endpoint("server", Site.SAME_RACK)
    server = TLSServer(net, endpoint, handler)
    server.start()
    return sim, rng, net, server


class TestConcurrentClients:
    def test_many_clients_isolated_sessions(self):
        """Twenty clients with distinct sessions each get their own reply,
        decryptable only under their own session keys."""
        sim, rng, net, server = make_stack(
            lambda request, _session: {"echo": request["client"]})
        replies = {}

        def client_proc(index):
            connection = yield sim.process(TLSConnection.connect(
                net, f"client-{index}", Site.SAME_DC, server.endpoint,
                rng.fork(b"client%d" % index)))
            server.register_session(connection.session)
            reply = yield sim.process(connection.request(
                {"client": index}))
            replies[index] = reply

        def main():
            yield sim.all_of([sim.process(client_proc(i))
                              for i in range(20)])

        sim.run_process(main())
        server.stop()
        assert replies == {i: {"echo": i} for i in range(20)}
        assert server.requests_served == 20

    def test_sessions_cryptographically_isolated(self):
        """One client's sealed request cannot be opened by another's keys."""
        from repro.errors import IntegrityError

        sim, rng, net, server = make_stack(lambda request, _s: "ok")

        def main():
            a = yield sim.process(TLSConnection.connect(
                net, "client-a", Site.SAME_RACK, server.endpoint,
                rng.fork(b"a")))
            b = yield sim.process(TLSConnection.connect(
                net, "client-b", Site.SAME_RACK, server.endpoint,
                rng.fork(b"b")))
            return a, b

        a, b = sim.run_process(main())
        server.stop()
        sealed_by_a = a.client_channel.seal({"secret": 1})
        with pytest.raises(IntegrityError):
            b.server_channel.open(sealed_by_a)

    def test_serialized_handler_queues_fairly(self):
        """A slow generator handler serves clients in arrival order."""
        sim, rng, net, _ = make_stack(lambda r, s: None)
        order = []

        def slow_handler(request, _session):
            yield sim.timeout(0.010)
            order.append(request["client"])
            return request["client"]

        endpoint = net.endpoint("slow-server", Site.SAME_RACK)
        server = TLSServer(net, endpoint, slow_handler)
        server.start()

        def client_proc(index):
            connection = yield sim.process(TLSConnection.connect(
                net, f"c{index}", Site.SAME_RACK, endpoint,
                rng.fork(b"cc%d" % index)))
            server.register_session(connection.session)
            yield sim.timeout(index * 0.001)  # staggered arrivals
            reply = yield sim.process(connection.request({"client": index}))
            assert reply == index

        def main():
            yield sim.all_of([sim.process(client_proc(i)) for i in range(5)])

        sim.run_process(main())
        server.stop()
        assert order == [0, 1, 2, 3, 4]

    def test_double_start_is_idempotent(self):
        sim, rng, net, server = make_stack(lambda r, s: "ok")
        server.start()  # second start must not spawn a second accept loop

        def main():
            connection = yield sim.process(TLSConnection.connect(
                net, "client", Site.SAME_RACK, server.endpoint,
                rng.fork(b"c")))
            server.register_session(connection.session)
            reply = yield sim.process(connection.request("ping"))
            return reply

        assert sim.run_process(main()) == "ok"
        server.stop()
        assert server.requests_served == 1


class TestMalformedRequestsOverTls:
    """A hostile client cannot crash the REST serve loop: every malformed
    request comes back as a structured reply with the dispatch layer's
    uniform codes, and well-formed requests keep succeeding after."""

    def make_rest_stack(self):
        from repro.core.rest import PalaemonRestClient, PalaemonRestServer

        from tests.core.conftest import Deployment

        deployment = Deployment()
        network = Network(deployment.simulator,
                          deployment.rng.fork(b"rest-net"))
        server = PalaemonRestServer(deployment.palaemon, network)
        client = deployment.simulator.run_process(PalaemonRestClient.connect(
            network, deployment.client, server, Site.SAME_DC,
            deployment.rng.fork(b"rest-conn"),
            trusted_root=deployment.ca.root_public_key))
        return deployment, server, client

    def raw_request(self, deployment, client, payload):
        """Send ``payload`` verbatim (no route envelope) over the session."""
        return deployment.simulator.run_process(
            client.connection.request(payload))

    def test_malformed_payloads_get_typed_replies_not_crashes(self):
        deployment, server, client = self.make_rest_stack()
        for junk in (b"\x00\x01\x02", ["not", "a", "mapping"], 17, None,
                     {"no_route_key": True}, {"route": 42},
                     {"route": b"tag.get"}):
            reply = self.raw_request(deployment, client, junk)
            assert reply["code"] in ("bad_request", "unknown_route")
            assert "error" in reply and "kind" in reply
        # The serve loop survived all of it: a real call still works.
        described = deployment.simulator.run_process(
            client.call("instance.describe"))
        assert described["name"] == deployment.palaemon.name
        server.stop()

    def test_missing_fields_and_unknown_routes_over_the_wire(self):
        from repro.errors import BadRequestError, UnknownRouteError

        deployment, server, client = self.make_rest_stack()

        def call(route, **fields):
            def proc():
                result = yield from client.call(route, **fields)
                return result

            return deployment.simulator.run_process(proc())

        with pytest.raises(BadRequestError) as missing:
            call("tag.update", policy="p")  # service + tag absent
        assert "service" in str(missing.value)
        assert "tag" in str(missing.value)
        with pytest.raises(UnknownRouteError):
            call("tag.frobnicate")
        server.stop()

    def test_hostile_and_honest_clients_interleave(self):
        """Garbage from one session never poisons another's replies."""
        deployment, server, client = self.make_rest_stack()
        simulator = deployment.simulator
        replies = []

        def hostile():
            for junk in (b"junk", {"route": "nope"}, ["x"]):
                reply = yield simulator.process(
                    client.connection.request(junk))
                replies.append(reply["code"])

        def honest():
            for _ in range(3):
                described = yield from client.call("instance.describe")
                assert described["name"] == deployment.palaemon.name

        def main():
            yield simulator.all_of([simulator.process(hostile()),
                                    simulator.process(honest())])

        simulator.run_process(main())
        assert sorted(replies) == ["bad_request", "bad_request",
                                   "unknown_route"]
        server.stop()
