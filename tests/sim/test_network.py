"""Tests for the simulated network."""

import pytest

from repro import calibration
from repro.crypto.primitives import DeterministicRandom
from repro.errors import NetworkError
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim.core import Simulator
from repro.sim.faults import FaultPlan
from repro.sim.network import Network, Site, rtt_between


class TestRtt:
    def test_same_site_is_rack_latency(self):
        assert rtt_between(Site.SAME_DC, Site.SAME_DC) == \
            calibration.RTT_SAME_RACK

    def test_rack_to_site(self):
        assert rtt_between(Site.SAME_RACK, Site.CONTINENTAL_7000KM) == \
            calibration.RTT_7000_KM

    def test_symmetry(self):
        for a in Site:
            for b in Site:
                assert rtt_between(a, b) == rtt_between(b, a)

    def test_distance_ordering(self):
        """Farther sites have strictly larger RTTs from the rack."""
        distances = [Site.SAME_RACK, Site.SAME_DC, Site.REGIONAL_300KM,
                     Site.CONTINENTAL_7000KM, Site.INTERCONTINENTAL_11000KM]
        rtts = [rtt_between(Site.SAME_RACK, site) for site in distances]
        assert rtts == sorted(rtts)
        assert len(set(rtts)) == len(rtts)


class TestDelivery:
    def make_net(self):
        sim = Simulator()
        net = Network(sim, jitter_fraction=0.0)
        return sim, net

    def test_message_arrives_after_one_way_delay(self):
        sim, net = self.make_net()
        a = net.endpoint("a", Site.SAME_RACK)
        b = net.endpoint("b", Site.CONTINENTAL_7000KM)

        def main():
            a.send(b, "hello", size_bytes=0)
            message = yield b.receive()
            return (message.payload, sim.now)

        payload, arrival = sim.run_process(main())
        assert payload == "hello"
        assert arrival == pytest.approx(calibration.RTT_7000_KM / 2)

    def test_serialization_delay_scales_with_size(self):
        sim, net = self.make_net()
        a = net.endpoint("a")
        b = net.endpoint("b")

        def main():
            a.send(b, "big", size_bytes=25_000_000)  # 10ms at 20Gb/s
            yield b.receive()
            return sim.now

        arrival = sim.run_process(main())
        expected = (calibration.RTT_SAME_RACK / 2
                    + 25_000_000 / calibration.LINK_BYTES_PER_SECOND)
        assert arrival == pytest.approx(expected)

    def test_request_reply(self):
        sim, net = self.make_net()
        client = net.endpoint("client", Site.SAME_DC)
        server = net.endpoint("server", Site.SAME_RACK)

        def server_proc():
            message = yield server.receive()
            server.send(message.reply_to, ("echo", message.payload))

        def client_proc():
            sim.process(server_proc())
            client.send(server, "ping")
            reply = yield client.receive()
            return (reply.payload, sim.now)

        payload, elapsed = sim.run_process(client_proc())
        assert payload == ("echo", "ping")
        assert elapsed >= calibration.RTT_SAME_DC

    def test_duplicate_endpoint_site_conflict(self):
        _, net = self.make_net()
        net.endpoint("x", Site.SAME_DC)
        with pytest.raises(NetworkError):
            net.endpoint("x", Site.SAME_RACK)

    def test_duplicate_endpoint_same_site_returns_existing(self):
        _, net = self.make_net()
        assert net.endpoint("x", Site.SAME_DC) is net.endpoint("x", Site.SAME_DC)

    def test_closed_endpoint_rejects_send(self):
        _, net = self.make_net()
        a = net.endpoint("a")
        b = net.endpoint("b")
        a.close()
        with pytest.raises(NetworkError):
            a.send(b, "payload")

    def test_reopening_a_closed_endpoint_name(self):
        """A restarted front-end reuses its name and gets a fresh inbox."""
        sim, net = self.make_net()
        a = net.endpoint("a")
        b = net.endpoint("b")

        def before_close():
            a.send(b, "queued, then lost with the old inbox")
            yield sim.timeout(1.0)

        sim.run_process(before_close())
        b.close()
        reopened = net.endpoint("b")
        assert reopened is b

        def after_reopen():
            reopened.send(a, "reply from the new inbox's owner")
            a.send(reopened, "after restart")
            message = yield reopened.receive()
            return message.payload

        assert sim.run_process(after_reopen()) == "after restart"

    def test_partition_drops_messages(self):
        sim, net = self.make_net()
        a = net.endpoint("a")
        b = net.endpoint("b")
        plan = FaultPlan(sim, NULL_TELEMETRY).drop_link("a", "b").attach(net)

        def main():
            a.send(b, "lost")
            b.send(a, "lost too")
            receipts = [b.receive(), a.receive()]
            yield sim.timeout(1.0)
            return [receipt.triggered for receipt in receipts]

        assert sim.run_process(main()) == [False, False]
        assert plan.summary() == {"drop": 2}

    def test_heal_restores_delivery(self):
        sim, net = self.make_net()
        a = net.endpoint("a")
        b = net.endpoint("b")
        FaultPlan(sim, NULL_TELEMETRY).drop_link("a", "b",
                                                 end=1.0).attach(net)

        def main():
            a.send(b, "lost")
            yield sim.timeout(1.0)  # the drop window closes: healed
            a.send(b, "found")
            message = yield b.receive()
            return message.payload

        assert sim.run_process(main()) == "found"

    def test_wire_log_capture(self):
        sim, net = self.make_net()
        net.wire_log_enabled = True
        a = net.endpoint("a")
        b = net.endpoint("b")

        def main():
            a.send(b, b"ciphertext-bytes")
            yield b.receive()

        sim.run_process(main())
        assert len(net.wire_log) == 1
        assert net.wire_log[0][3] == b"ciphertext-bytes"

    def test_byte_accounting(self):
        sim, net = self.make_net()
        a = net.endpoint("a")
        b = net.endpoint("b")

        def main():
            a.send(b, "x", size_bytes=100)
            yield b.receive()

        sim.run_process(main())
        assert a.bytes_sent == 100
        assert b.bytes_received == 100
        assert net.messages_delivered == 1

    def test_jitter_free_delay_draws_no_randomness(self):
        rng = DeterministicRandom(b"net")
        net = Network(Simulator(), rng, jitter_fraction=0.0)
        delays = {net.one_way_delay(Site.SAME_RACK, Site.REGIONAL_300KM, 100)
                  for _ in range(50)}
        assert delays == {calibration.RTT_300_KM / 2
                          + 100 / calibration.LINK_BYTES_PER_SECOND}
        assert rng.bytes(16) == DeterministicRandom(b"net").bytes(16)
