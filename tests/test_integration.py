"""End-to-end integration tests over the network REST front-end.

These exercise the whole stack at once — client TLS connection with CA
verification, policy CRUD over the wire, application attestation and tag
traffic through the API — and then scan the simulated wire and the
provider's volume for leaks.
"""

from types import SimpleNamespace

import pytest

from repro.core.policy import SecurityPolicy, ServiceSpec
from repro.core.rest import PalaemonRestClient, PalaemonRestServer
from repro.core.secrets import SecretKind, SecretSpec
from repro.crypto.primitives import DeterministicRandom
from repro.errors import (
    AccessDeniedError,
    CertificateError,
    PolicyNotFoundError,
    PolicyValidationError,
    UnknownRouteError,
)
from repro.sim.network import Network, Site
from repro.tls.channel import TLSConnection

from tests.core.conftest import Deployment


@pytest.fixture()
def deployment():
    return Deployment(seed=b"integration")


@pytest.fixture()
def network(deployment):
    return Network(deployment.simulator,
                   DeterministicRandom(b"integration-net"))


@pytest.fixture()
def rest_server(deployment, network):
    server = PalaemonRestServer(deployment.palaemon, network)
    yield server
    server.stop()


def connect(deployment, network, rest_server, site=Site.SAME_DC,
            verify_ca=True):
    rng = DeterministicRandom(b"rest-client")

    def main():
        client = yield deployment.simulator.process(
            PalaemonRestClient.connect(
                network, deployment.client, rest_server, site, rng,
                trusted_root=(deployment.ca.root_public_key
                              if verify_ca else None)))
        return client

    return deployment.simulator.run_process(main())


def call(deployment, client, route, **fields):
    def main():
        result = yield deployment.simulator.process(
            client.call(route, **fields))
        return result

    return deployment.simulator.run_process(main())


class TestRestApi:
    def test_full_policy_lifecycle_over_the_wire(self, deployment, network,
                                                 rest_server):
        client = connect(deployment, network, rest_server)
        policy = deployment.make_policy()
        created = call(deployment, client, "policy.create", policy=policy)
        assert created == {"created": "ml_policy"}
        names = call(deployment, client, "policy.list")
        assert names == ["ml_policy"]
        fetched = call(deployment, client, "policy.read", name="ml_policy")
        assert fetched.name == "ml_policy"
        call(deployment, client, "policy.delete", name="ml_policy")
        assert call(deployment, client, "policy.list") == []

    def test_attestation_over_the_wire(self, deployment, network,
                                       rest_server):
        client = connect(deployment, network, rest_server)
        call(deployment, client, "policy.create",
             policy=deployment.make_policy())
        evidence = deployment.evidence_for("ml_policy")
        config = call(deployment, client, "app.attest", evidence=evidence)
        assert "API_KEY" in config.secrets

    def test_tag_round_trip_over_the_wire(self, deployment, network,
                                          rest_server):
        client = connect(deployment, network, rest_server)
        call(deployment, client, "policy.create",
             policy=deployment.make_policy())
        call(deployment, client, "tag.update", policy="ml_policy",
             service="ml_app", tag=b"\x07" * 32)
        tag = call(deployment, client, "tag.get", policy="ml_policy",
                   service="ml_app")
        assert tag == b"\x07" * 32

    def test_errors_carry_their_kind(self, deployment, network, rest_server):
        client = connect(deployment, network, rest_server)
        with pytest.raises(PolicyNotFoundError):
            call(deployment, client, "policy.read", name="ghost")

    def test_unknown_route_rejected(self, deployment, network, rest_server):
        client = connect(deployment, network, rest_server)
        with pytest.raises(UnknownRouteError, match="unknown route"):
            call(deployment, client, "no.such.route")

    def test_describe_route(self, deployment, network, rest_server):
        client = connect(deployment, network, rest_server)
        description = call(deployment, client, "instance.describe")
        assert description["mrenclave"] == deployment.palaemon.mrenclave
        assert description["certificate"] is not None

    def test_connection_verifies_ca_certificate(self, deployment, network,
                                                rest_server):
        """A client pinning a different root refuses to even connect."""
        from repro.crypto.certificates import CertificateAuthority

        evil_root = CertificateAuthority.create(
            "evil", DeterministicRandom(b"evil-root"))
        rng = DeterministicRandom(b"pinning-client")

        def main():
            yield deployment.simulator.process(PalaemonRestClient.connect(
                network, deployment.client, rest_server, Site.SAME_DC, rng,
                trusted_root=evil_root.root_public_key))

        with pytest.raises(CertificateError):
            deployment.simulator.run_process(main())

    def test_wrong_owner_certificate_rejected_remotely(self, deployment,
                                                       network, rest_server):
        owner_client = connect(deployment, network, rest_server)
        call(deployment, owner_client, "policy.create",
             policy=deployment.make_policy())
        from repro.core.client import PalaemonClient

        intruder = PalaemonClient("intruder", DeterministicRandom(b"thief"))
        intruder.attest_instance_via_ca(deployment.palaemon,
                                        deployment.ca.root_public_key,
                                        now=deployment.simulator.now)
        rng = DeterministicRandom(b"intruder-conn")

        def main():
            connection = yield deployment.simulator.process(
                PalaemonRestClient.connect(
                    network, intruder, rest_server, Site.SAME_DC, rng,
                    trusted_root=deployment.ca.root_public_key))
            result = yield deployment.simulator.process(
                connection.call("policy.read", name="ml_policy"))
            return result

        with pytest.raises(AccessDeniedError):
            deployment.simulator.run_process(main())


class TestClientIdentity:
    """The session's client certificate is the caller's identity, so a
    client must hold the certificate's private key, not only the
    (public) certificate."""

    def impostor_attempt(self, deployment, network, rest_server, impostor):
        rng = DeterministicRandom(b"impostor-conn")

        def main():
            connection = yield deployment.simulator.process(
                PalaemonRestClient.connect(
                    network, impostor, rest_server, Site.SAME_DC, rng,
                    trusted_root=deployment.ca.root_public_key))
            policy = yield deployment.simulator.process(
                connection.call("policy.read", name="ml_policy"))
            yield deployment.simulator.process(
                connection.call("policy.delete", name="ml_policy"))
            return policy

        return main

    def test_owner_certificate_without_its_key_is_refused(
            self, deployment, network, rest_server):
        from repro.core.client import PalaemonClient

        owner = connect(deployment, network, rest_server)
        call(deployment, owner, "policy.create",
             policy=deployment.make_policy())
        mallory = PalaemonClient("mallory", DeterministicRandom(b"mallory"))
        # The owner's certificate is public; Mallory's key pair is not the
        # one behind it.
        impostor = SimpleNamespace(name="mallory",
                                   certificate=deployment.client.certificate,
                                   key_pair=mallory.key_pair)
        with pytest.raises(CertificateError, match="prove"):
            deployment.simulator.run_process(self.impostor_attempt(
                deployment, network, rest_server, impostor)())
        # The policy was neither read nor deleted.
        fetched = call(deployment, owner, "policy.read", name="ml_policy")
        assert fetched.name == "ml_policy"

    def test_certificate_with_no_key_is_refused(self, deployment, network,
                                                rest_server):
        rng = DeterministicRandom(b"keyless")

        def main():
            yield deployment.simulator.process(TLSConnection.connect(
                network, "keyless", Site.SAME_DC, rest_server.endpoint, rng,
                client_certificate=deployment.client.certificate))

        with pytest.raises(CertificateError, match="prove"):
            deployment.simulator.run_process(main())


class TestWireConfidentiality:
    def test_secrets_never_in_plaintext_on_the_wire(self, deployment,
                                                    network, rest_server):
        """Scan every frame that crossed the simulated network."""
        network.wire_log_enabled = True
        client = connect(deployment, network, rest_server)
        policy = deployment.make_policy(secrets=[
            SecretSpec(name="CANARY", kind=SecretKind.EXPLICIT,
                       value=b"canary-plaintext-secret-0123")])
        call(deployment, client, "policy.create", policy=policy)
        config = call(deployment, client, "app.attest",
                      evidence=deployment.evidence_for("ml_policy"))
        assert config.secrets["CANARY"] == b"canary-plaintext-secret-0123"

        frames = 0
        for _time, _src, _dst, payload in network.wire_log:
            frames += 1
            body = payload["data"] if isinstance(payload, dict) else payload
            assert b"canary-plaintext-secret-0123" not in body
        assert frames >= 4  # requests and replies actually crossed the wire

    def test_secrets_never_on_provider_volume(self, deployment, network,
                                              rest_server):
        client = connect(deployment, network, rest_server)
        policy = deployment.make_policy(secrets=[
            SecretSpec(name="CANARY", kind=SecretKind.EXPLICIT,
                       value=b"volume-canary-secret-456")])
        call(deployment, client, "policy.create", policy=policy)
        assert deployment.volume.scan_for(b"volume-canary-secret-456") == []


class TestVolumeRoutes:
    def test_volume_tag_over_the_wire(self, deployment, network,
                                      rest_server):
        from repro.core.policy import VolumeSpec

        client = connect(deployment, network, rest_server)
        policy = deployment.make_policy()
        policy.volumes.append(VolumeSpec(name="data", path="/data"))
        call(deployment, client, "policy.create", policy=policy)
        call(deployment, client, "volume_tag.update", policy="ml_policy",
             volume="data", tag=b"\x0a" * 32)
        tag = call(deployment, client, "volume_tag.get", policy="ml_policy",
                   volume="data")
        assert tag == b"\x0a" * 32

    def test_undeclared_volume_error_kind(self, deployment, network,
                                          rest_server):
        client = connect(deployment, network, rest_server)
        call(deployment, client, "policy.create",
             policy=deployment.make_policy())
        with pytest.raises(PolicyValidationError):
            call(deployment, client, "volume_tag.update", policy="ml_policy",
                 volume="ghost", tag=b"\x00" * 32)

    def test_policy_update_route(self, deployment, network, rest_server):
        from repro.core.secrets import SecretKind, SecretSpec

        client = connect(deployment, network, rest_server)
        policy = deployment.make_policy()
        call(deployment, client, "policy.create", policy=policy)
        policy.secrets.append(SecretSpec(name="ADDED",
                                         kind=SecretKind.RANDOM))
        reply = call(deployment, client, "policy.update", policy=policy)
        assert reply == {"updated": "ml_policy"}
        fetched = call(deployment, client, "policy.read", name="ml_policy")
        assert any(s.name == "ADDED" for s in fetched.secrets)
