"""Tests for TLS handshake and secure channels."""

import pytest

from repro import calibration
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair
from repro.errors import CertificateError
from repro.sim.core import Simulator
from repro.sim.faults import FaultPlan
from repro.sim.network import Network, Site
from repro.tls.channel import TLSConnection, TLSServer
from repro.tls.handshake import handshake_latency, perform_handshake


@pytest.fixture()
def rng():
    return DeterministicRandom(b"tls-tests")


class TestHandshakeLatency:
    def test_two_round_trips_plus_crypto(self):
        latency = handshake_latency(Site.SAME_RACK, Site.SAME_DC)
        expected = (2 * calibration.RTT_SAME_DC
                    + calibration.TLS_HANDSHAKE_CRYPTO_SECONDS)
        assert latency == pytest.approx(expected)

    def test_distance_dominates_far_handshakes(self):
        near = handshake_latency(Site.SAME_RACK, Site.SAME_RACK)
        far = handshake_latency(Site.SAME_RACK,
                                Site.INTERCONTINENTAL_11000KM)
        assert far > 10 * near


class TestHandshake:
    def test_session_established_with_time_cost(self, rng):
        sim = Simulator()

        def main():
            session = yield sim.process(perform_handshake(
                sim, rng, Site.SAME_RACK, Site.SAME_DC))
            return session, sim.now

        session, elapsed = sim.run_process(main())
        assert elapsed == pytest.approx(
            handshake_latency(Site.SAME_RACK, Site.SAME_DC))
        assert session.session_id

    def test_certificate_verified_against_root(self, rng):
        sim = Simulator()
        ca = CertificateAuthority.create("palaemon-ca", rng.fork(b"ca"))
        server_keys = KeyPair.generate(rng.fork(b"server"), bits=512)
        cert = ca.issue("palaemon-1", server_keys.public, 0.0, 1e9)

        def main():
            session = yield sim.process(perform_handshake(
                sim, rng, Site.SAME_RACK, Site.SAME_RACK,
                server_certificate=cert, trusted_root=ca.root_public_key))
            return session

        assert sim.run_process(main()).server_certificate is cert

    def test_untrusted_certificate_rejected(self, rng):
        sim = Simulator()
        good_ca = CertificateAuthority.create("palaemon-ca", rng.fork(b"ca"))
        evil_ca = CertificateAuthority.create("evil-ca", rng.fork(b"evil"))
        server_keys = KeyPair.generate(rng.fork(b"server"), bits=512)
        cert = evil_ca.issue("fake-palaemon", server_keys.public, 0.0, 1e9)

        def main():
            yield sim.process(perform_handshake(
                sim, rng, Site.SAME_RACK, Site.SAME_RACK,
                server_certificate=cert,
                trusted_root=good_ca.root_public_key))

        with pytest.raises(CertificateError):
            sim.run_process(main())

    def test_missing_certificate_rejected(self, rng):
        sim = Simulator()
        ca = CertificateAuthority.create("ca", rng.fork(b"ca"))

        def main():
            yield sim.process(perform_handshake(
                sim, rng, Site.SAME_RACK, Site.SAME_RACK,
                trusted_root=ca.root_public_key))

        with pytest.raises(CertificateError, match="no certificate"):
            sim.run_process(main())

    def test_sessions_have_distinct_keys(self, rng):
        """PFS shape: two sessions never share key material."""
        sim = Simulator()

        def main():
            one = yield sim.process(perform_handshake(
                sim, rng, Site.SAME_RACK, Site.SAME_RACK))
            two = yield sim.process(perform_handshake(
                sim, rng, Site.SAME_RACK, Site.SAME_RACK))
            return one, two

        one, two = sim.run_process(main())
        sealed_one = one.client_box.seal(b"same message")
        sealed_two = two.client_box.seal(b"same message")
        assert one.session_id != two.session_id
        assert sealed_one != sealed_two
        from repro.errors import IntegrityError
        with pytest.raises(IntegrityError):
            two.client_box.open(sealed_one)


class TestConnection:
    def make_server(self, sim, net, handler):
        endpoint = net.endpoint("server", Site.SAME_RACK)
        server = TLSServer(net, endpoint, handler)
        server.start()
        return server

    def test_request_reply_round_trip(self, rng):
        sim = Simulator()
        net = Network(sim, rng.fork(b"net"))
        server = self.make_server(
            sim, net, lambda request, _session: {"echo": request})

        def main():
            connection = yield sim.process(TLSConnection.connect(
                net, "client", Site.SAME_DC, server.endpoint, rng))
            server.register_session(connection.session)
            reply = yield sim.process(connection.request({"ping": 1}))
            server.stop()
            return reply

        assert sim.run_process(main()) == {"echo": {"ping": 1}}

    def test_payloads_encrypted_on_wire(self, rng):
        sim = Simulator()
        net = Network(sim, rng.fork(b"net"))
        net.wire_log_enabled = True
        server = self.make_server(
            sim, net, lambda request, _session: "ok")

        def main():
            connection = yield sim.process(TLSConnection.connect(
                net, "client", Site.SAME_DC, server.endpoint, rng))
            server.register_session(connection.session)
            yield sim.process(connection.request(
                {"secret": "plaintext-password"}))
            server.stop()

        sim.run_process(main())
        for _time, _src, _dst, payload in net.wire_log:
            raw = payload["data"] if isinstance(payload, dict) else payload
            assert b"plaintext-password" not in raw

    def test_generator_handler(self, rng):
        sim = Simulator()
        net = Network(sim, rng.fork(b"net"))

        def slow_handler(request, _session):
            yield sim.timeout(0.010)
            return request * 2

        server = self.make_server(sim, net, slow_handler)

        def main():
            connection = yield sim.process(TLSConnection.connect(
                net, "client", Site.SAME_RACK, server.endpoint, rng))
            server.register_session(connection.session)
            start = sim.now
            reply = yield sim.process(connection.request(21))
            server.stop()
            return reply, sim.now - start

        reply, elapsed = sim.run_process(main())
        assert reply == 42
        assert elapsed >= 0.010

    def test_duplicated_replies_dropped_as_stale(self, rng):
        """A reply the network delivers twice is never taken as the answer
        to the next request."""
        sim = Simulator()
        net = Network(sim, rng.fork(b"net"))
        plan = FaultPlan(sim).duplicate_link("server", "client",
                                             probability=1.0)
        plan.attach(net)
        server = self.make_server(
            sim, net, lambda request, _session: {"echo": request})

        def main():
            connection = yield sim.process(TLSConnection.connect(
                net, "client", Site.SAME_DC, server.endpoint, rng))
            server.register_session(connection.session)
            first = yield sim.process(connection.request(1))
            second = yield sim.process(connection.request(2))
            server.stop()
            return connection, first, second

        connection, first, second = sim.run_process(main())
        assert (first, second) == ({"echo": 1}, {"echo": 2})
        # Each request arrives twice and the server's anti-replay window
        # drops the second copy, so each runs once; the first reply is
        # duplicated, and the second request reads and drops that stale
        # copy before its own reply.
        assert plan.injected["duplicate"] >= 3
        assert server.requests_served == 2
        assert server.records_dropped == {"replayed": 2}
        assert connection.stale_replies_dropped == 1

    def test_unknown_session_dropped(self, rng):
        sim = Simulator()
        net = Network(sim, rng.fork(b"net"))
        served = []
        server = self.make_server(
            sim, net, lambda request, _s: served.append(request))

        def main():
            connection = yield sim.process(TLSConnection.connect(
                net, "client", Site.SAME_RACK, server.endpoint, rng))
            # Session deliberately NOT registered with the server.
            connection.client_endpoint.send(
                server.endpoint,
                {"session": b"bogus-session-id",
                 "data": connection.client_channel.seal("payload")})
            yield sim.timeout(0.1)
            server.stop()

        sim.run_process(main())
        assert served == []
        assert server.requests_served == 0
