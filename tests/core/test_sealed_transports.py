"""One sealed channel for every transport.

REST and the federation peer link, which carries fail-over replication
too, ride ``TLSConnection``/``TLSServer``, and every structured reply is
decoded by ``decode_reply``. The probes here are the attacks the hand-rolled
channels let through: an observer who knows the instances' public keys
reading the wire, a request forged under a key derived from those public
keys, one junk packet stopping a server, plaintext replication records,
and a client certificate smuggled into a request body.
"""

import importlib
import pickle
import typing

import pytest

from repro.core.client import PalaemonClient
from repro.core.dispatch import decode_reply
from repro.core.failover import FailoverCoordinator
from repro.core.federation import FederatedInstance
from repro.core.policy import ImportSpec, VolumeImportSpec, VolumeSpec
from repro.core.rest import PalaemonRestClient, PalaemonRestServer
from repro.core.secrets import SecretKind, SecretSpec
from repro.crypto.primitives import DeterministicRandom, hkdf, sha256
from repro.crypto.symmetric import SecretBox
from repro.errors import (
    AccessDeniedError,
    CryptoError,
    PolicyNotFoundError,
    ReproError,
    RetryExhaustedError,
    SimulationError,
)
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim.faults import FaultPlan
from repro.sim.network import Network, Site
from repro.tls.channel import WIRE_CLASSES
from repro.tls.handshake import handshake_latency

from tests.core.conftest import Deployment, make_second_instance

CANARY = b"exported-api-key-canary-0123456"


def public_key_link_key(local, remote):
    """The federation key an observer derives from two public keys."""
    return hkdf(sha256(*sorted((local.service.public_key.to_bytes(),
                                remote.service.public_key.to_bytes()))),
                b"palaemon-federation-link")


def peered_pair(deployment):
    """Two CA-certified instances peered over a fresh network."""
    network = Network(deployment.simulator, DeterministicRandom(b"fed-net"))
    root = deployment.ca.root_public_key
    local = FederatedInstance(deployment.palaemon, Site.SAME_RACK, root,
                              network)
    remote_service = make_second_instance(deployment)
    remote = FederatedInstance(remote_service, Site.SAME_DC, root, network)
    deployment.simulator.run_process(local.peer_with(remote))
    return network, local, remote, remote_service


def seed_exported_secret(deployment, service):
    policy = deployment.make_policy(name="producer_policy", secrets=[
        SecretSpec(name="API_KEY", kind=SecretKind.EXPLICIT, value=CANARY,
                   export_to=("consumer_policy",))])
    service.create_policy(policy, deployment.client.certificate)


def fetch(deployment, local, remote, policy="producer_policy"):
    def main():
        secrets = yield from local.fetch_remote_secrets(
            remote.name, policy, "consumer_policy", ["API_KEY"])
        return secrets

    return deployment.simulator.run_process(main())


def designate_backup(deployment, local, remote):
    """Give the primary ``ml_policy``, then designate ``remote`` as its
    backup; the enrolment batch carries the policy."""
    deployment.palaemon.create_policy(deployment.make_policy(with_board=False),
                                      deployment.client.certificate)
    return FailoverCoordinator(local, remote)


def push_tag(deployment, value):
    """A timed tag update on the primary; it returns on the backup's ack
    of the flush that holds it."""
    def main():
        yield from deployment.palaemon.update_tag("ml_policy", "ml_app",
                                                  value)

    deployment.simulator.run_process(main())


def rest_stack(deployment, client=None):
    network = Network(deployment.simulator, DeterministicRandom(b"rest-net"))
    server = PalaemonRestServer(deployment.palaemon, network)
    client = client or deployment.client

    def main():
        connection = yield from PalaemonRestClient.connect(
            network, client, server, Site.SAME_DC,
            DeterministicRandom(b"rest-" + client.name.encode()),
            trusted_root=deployment.ca.root_public_key)
        return connection

    return network, server, deployment.simulator.run_process(main())


def rest_call(deployment, connection, route, **fields):
    def main():
        reply = yield from connection.call(route, **fields)
        return reply

    return deployment.simulator.run_process(main())


class TestWireConfidentiality:
    def test_public_keys_open_no_peer_or_replication_record(self):
        deployment = Deployment()
        network, local, remote, _ = peered_pair(deployment)
        network.wire_log_enabled = True
        # The backup serves the fetch from its enrolled copy.
        seed_exported_secret(deployment, deployment.palaemon)
        designate_backup(deployment, local, remote)
        assert fetch(deployment, local, remote) == {"API_KEY": CANARY}
        push_tag(deployment, CANARY)

        observer = SecretBox(public_key_link_key(local, remote),
                             DeterministicRandom(b"observer"))
        records = 0
        for _time, _source, _destination, payload in network.wire_log:
            records += 1
            with pytest.raises(CryptoError):
                observer.open(payload["data"])
            assert CANARY not in pickle.dumps(payload)
        # The enrolment, a fetch and a tag update's batch, there and back.
        assert records == 6

    def test_no_plaintext_state_update_on_the_wire(self):
        deployment = Deployment()
        network, local, remote, _ = peered_pair(deployment)
        network.wire_log_enabled = True
        coordinator = designate_backup(deployment, local, remote)
        push_tag(deployment, CANARY)
        assert coordinator.replication_lag() == 0
        assert network.wire_log
        for _time, _source, _destination, payload in network.wire_log:
            assert CANARY not in pickle.dumps(payload)


class TestForgery:
    def test_request_under_public_key_derived_key_gets_no_reply(self):
        deployment = Deployment()
        network, local, remote, remote_service = peered_pair(deployment)
        seed_exported_secret(deployment, remote_service)
        forger = network.endpoint("forger", Site.SAME_DC)
        box = SecretBox(public_key_link_key(local, remote),
                        DeterministicRandom(b"forger"))
        request = {"kind": "fetch", "rid": 1, "policy": "producer_policy",
                   "requesting_policy": "consumer_policy",
                   "secrets": ["API_KEY"]}

        def forge():
            forger.send(network.endpoint(f"fed-{remote.name}", Site.SAME_DC),
                        {"from": local.name,
                         "data": box.seal(pickle.dumps(request))},
                        size_bytes=512, reply_to=forger)
            yield deployment.simulator.timeout(1.0)

        deployment.simulator.run_process(forge())
        assert forger.bytes_received == 0
        # The peer link itself still works.
        assert fetch(deployment, local, remote) == {"API_KEY": CANARY}

    def test_body_certificate_does_not_impersonate_the_owner(self):
        """A client cannot claim another's certificate in the request
        body: the TLS session's certificate is the only identity."""
        deployment = Deployment()
        owner = deployment.client
        policy = deployment.make_policy()
        owner.create_policy(deployment.palaemon, policy)
        mallory = PalaemonClient("mallory", DeterministicRandom(b"mallory"))
        _network, server, connection = rest_stack(deployment, mallory)

        with pytest.raises(AccessDeniedError):
            rest_call(deployment, connection, "policy.read",
                      name=policy.name,
                      client_certificate=owner.certificate)
        hijacked = deployment.make_policy()
        hijacked.services[0].mrenclaves.append(b"\x66" * 32)
        with pytest.raises(AccessDeniedError):
            rest_call(deployment, connection, "policy.update",
                      policy=hijacked, client_certificate=owner.certificate)
        stored = owner.read_policy(deployment.palaemon, policy.name)
        assert b"\x66" * 32 not in stored.services[0].mrenclaves
        server.stop()


class TestServerRobustness:
    def test_junk_and_tampered_records_do_not_stop_rest(self):
        deployment = Deployment()
        network, server, connection = rest_stack(deployment)
        assert server.endpoint.name == "palaemon-1-rest"
        prober = network.endpoint("prober", Site.SAME_DC)
        session_id = connection.connection.session.session_id
        sealed = connection.connection.client_channel.seal(
            {"rid": 99, "body": {"route": "policy.list"}})
        tampered = sealed[:-1] + bytes([sealed[-1] ^ 0x01])

        def probe():
            prober.send(server.endpoint, b"junk", size_bytes=64)
            prober.send(server.endpoint,
                        {"session": session_id, "data": tampered},
                        size_bytes=64)
            yield deployment.simulator.timeout(0.5)
            names = yield from connection.call("policy.list")
            return names

        assert deployment.simulator.run_process(probe()) == []
        assert prober.bytes_received == 0
        server.stop()


class TestOneReplyFormat:
    def test_same_refusal_raises_the_same_class_everywhere(self):
        deployment = Deployment()
        _network, local, remote, _ = peered_pair(deployment)
        _network, server, connection = rest_stack(deployment)
        raised = []
        for attempt in (
                lambda: rest_call(deployment, connection, "policy.read",
                                  name="ghost"),
                lambda: fetch(deployment, local, remote, policy="ghost"),
                lambda: deployment.client.read_policy(deployment.palaemon,
                                                      "ghost")):
            with pytest.raises(PolicyNotFoundError) as info:
                attempt()
            raised.append(type(info.value))
        assert raised == [PolicyNotFoundError] * 3
        server.stop()

    def test_decoder_resolves_only_repro_errors(self):
        for kind in ("KeyError", "SystemExit", "__class__", "Optional",
                     "InternalError", None, ["PolicyNotFoundError"]):
            with pytest.raises(ReproError) as info:
                decode_reply({"error": "x", "kind": kind})
            assert type(info.value) is ReproError
        with pytest.raises(RetryExhaustedError):
            decode_reply({"error": "x", "kind": "RetryExhaustedError"})

    def test_malformed_replies_raise_repro_error(self):
        for reply in (None, b"junk", ["ok"], {}, {"ok": 1, "error": "x"}):
            with pytest.raises(ReproError) as info:
                decode_reply(reply)
            assert type(info.value) is ReproError


def importing_policies(deployment):
    """A producer that exports a secret and a volume to ``consumer``, and
    the consumer that imports both: every policy field type at once."""
    producer = deployment.make_policy(name="producer", with_board=False,
                                      secrets=[SecretSpec(
                                          name="MODEL_KEY",
                                          kind=SecretKind.RANDOM,
                                          export_to=("consumer",))])
    producer.volumes.append(VolumeSpec(name="out", export_to="consumer"))
    consumer = deployment.make_policy(
        name="consumer", service_name="reader", with_board=False,
        secrets=[], imports=[ImportSpec(from_policy="producer",
                                        secret_name="MODEL_KEY")])
    consumer.volume_imports.append(VolumeImportSpec(from_policy="producer",
                                                    volume_name="out"))
    return producer, consumer


def wire_class_fields(cls):
    """The ``repro`` classes the field annotations of ``cls`` name, through
    List, Tuple, Dict and Optional."""
    found = set()

    def walk(hint):
        if isinstance(hint, type):
            if hint.__module__.startswith("repro."):
                found.add((hint.__module__, hint.__qualname__))
            return
        for argument in typing.get_args(hint):
            walk(argument)

    for hint in typing.get_type_hints(cls).values():
        walk(hint)
    return found


class TestWireClasses:
    def test_wire_classes_close_over_their_field_types(self):
        """A record carries a wire class whole, so every class one of its
        fields names must decode too."""
        for module, name in WIRE_CLASSES:
            cls = getattr(importlib.import_module(module), name)
            assert wire_class_fields(cls) <= WIRE_CLASSES, (module, name)

    def test_importing_policy_is_created_and_read_over_rest(self):
        deployment = Deployment()
        producer, consumer = importing_policies(deployment)
        _network, server, connection = rest_stack(deployment)
        rest_call(deployment, connection, "policy.create", policy=producer)
        rest_call(deployment, connection, "policy.create", policy=consumer)
        assert rest_call(deployment, connection, "policy.read",
                         name="consumer") == consumer
        consumer.volume_imports.clear()
        rest_call(deployment, connection, "policy.update", policy=consumer)
        assert deployment.palaemon.store.get("policies",
                                             "consumer") == consumer
        assert sum(server._server.records_dropped.values()) == 0
        server.stop()

    def test_importing_policy_enrols_on_the_backup(self):
        deployment = Deployment()
        _network, local, remote, backup = peered_pair(deployment)
        for policy in importing_policies(deployment):
            deployment.palaemon.create_policy(policy,
                                              deployment.client.certificate)
        coordinator = designate_backup(deployment, local, remote)
        deployment.simulator.run()
        assert coordinator.replication_lag() == 0
        assert (backup.store.get("policies", "consumer")
                == deployment.palaemon.store.get("policies", "consumer"))


class TestPeering:
    def test_peering_costs_one_handshake(self):
        deployment = Deployment()
        simulator = deployment.simulator
        network = Network(simulator, DeterministicRandom(b"net"))
        root = deployment.ca.root_public_key
        local = FederatedInstance(deployment.palaemon, Site.SAME_RACK, root,
                                  network)
        remote = FederatedInstance(make_second_instance(deployment),
                                   Site.CONTINENTAL_7000KM, root, network)
        started = simulator.now
        simulator.run_process(local.peer_with(remote))
        assert simulator.now - started == pytest.approx(
            handshake_latency(local.site, remote.site))
        assert local.peers() == [remote.name]
        assert remote.peers() == [local.name]


class TestUnretriedFetchUnderPartition:
    def test_fetch_without_retry_policy_never_finishes(self):
        """The regression the retry layer exists to prevent: inside a
        drop window, a fetch issued without a ``RetryPolicy`` sends once
        and waits forever."""
        deployment = Deployment()
        network, local, remote, remote_service = peered_pair(deployment)
        seed_exported_secret(deployment, remote_service)
        now = deployment.simulator.now
        FaultPlan(deployment.simulator, NULL_TELEMETRY).drop_link(
            f"fed-{local.name}-to-{remote.name}", f"fed-{remote.name}",
            start=now, end=now + 2.5).attach(network)
        with pytest.raises(SimulationError, match="did not finish"):
            fetch(deployment, local, remote)
