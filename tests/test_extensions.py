"""Tests for the extension features: federation and fail-over."""

import pytest

from repro import calibration
from repro.core.failover import FailoverCoordinator, StateUpdate
from repro.core.federation import FederatedInstance, Federation
from repro.core.policy import SecurityPolicy, ServiceSpec
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair
from repro.errors import (
    AccessDeniedError,
    AttestationError,
    PolicyError,
    PolicyNotFoundError,
)
from repro.fs.blockstore import BlockStore
from repro.sim.network import Network, Site
from repro.tee.platform import SGXPlatform

from tests.core.conftest import (
    Deployment,
    make_networked_pair,
    make_second_instance,
)


@pytest.fixture()
def deployment():
    return Deployment(seed=b"extensions")


def make_network(deployment, label=b"net"):
    return Network(deployment.simulator, deployment.rng.fork(label))


class TestFederation:
    def make_pair(self, deployment):
        return make_networked_pair(deployment,
                                   remote_site=Site.CONTINENTAL_7000KM)

    def seed_remote_policy(self, deployment, remote_service,
                           export_to=("consumer_policy",)):
        policy = SecurityPolicy(
            name="producer_policy",
            services=[ServiceSpec(name="svc", image_name="img",
                                  mrenclaves=[deployment.app_image
                                              .mrenclave()])],
            secrets=[SecretSpec(name="SHARED_KEY", kind=SecretKind.RANDOM,
                                export_to=tuple(export_to))])
        remote_service.create_policy(policy, deployment.client.certificate)
        return policy

    def test_peering_establishes_links(self, deployment):
        local, remote, _ = self.make_pair(deployment)
        assert remote.name in local.peers()
        assert local.name in remote.peers()

    def test_uncertified_peer_rejected(self, deployment):
        network = make_network(deployment)
        local = FederatedInstance(deployment.palaemon, Site.SAME_RACK,
                                  deployment.ca.root_public_key, network)
        rng = DeterministicRandom(b"rogue-fed")
        rogue_platform = SGXPlatform(deployment.simulator, "rogue-node",
                                     rng.fork(b"p"))
        rogue = PalaemonService(rogue_platform, BlockStore("rv"),
                                rng.fork(b"s"), name="rogue",
                                version="tampered")
        deployment.simulator.run_process(rogue.start())
        rogue_fed = FederatedInstance(rogue, Site.SAME_DC,
                                      deployment.ca.root_public_key, network)
        with pytest.raises(AttestationError):
            deployment.simulator.run_process(local.peer_with(rogue_fed))
        assert rogue_fed.name not in local.peers()

    def test_peer_certified_by_another_root_rejected(self, deployment):
        """A genuine peer whose certificate chains to a root the local
        instance does not trust fails attestation, not with a bare
        certificate error."""
        network = make_network(deployment)
        other_root = KeyPair.generate(DeterministicRandom(b"other-ca")).public
        local = FederatedInstance(deployment.palaemon, Site.SAME_RACK,
                                  other_root, network)
        remote = FederatedInstance(make_second_instance(deployment),
                                   Site.SAME_DC,
                                   deployment.ca.root_public_key, network)
        with pytest.raises(AttestationError, match="certificate rejected"):
            deployment.simulator.run_process(local.peer_with(remote))
        assert remote.name not in local.peers()

    def test_remote_secret_retrieval(self, deployment):
        local, remote, remote_service = self.make_pair(deployment)
        self.seed_remote_policy(deployment, remote_service)

        def main():
            secrets = yield deployment.simulator.process(
                local.fetch_remote_secrets(
                    remote.name, "producer_policy", "consumer_policy",
                    ["SHARED_KEY"]))
            return secrets

        secrets = deployment.simulator.run_process(main())
        expected = remote_service.store.get(
            "secrets", "producer_policy")["SHARED_KEY"].value
        assert secrets["SHARED_KEY"] == expected

    def test_export_rules_enforced_across_instances(self, deployment):
        local, remote, remote_service = self.make_pair(deployment)
        self.seed_remote_policy(deployment, remote_service,
                                export_to=("someone_else",))

        def main():
            yield deployment.simulator.process(
                local.fetch_remote_secrets(
                    remote.name, "producer_policy", "consumer_policy",
                    ["SHARED_KEY"]))

        with pytest.raises(AccessDeniedError):
            deployment.simulator.run_process(main())

    def test_unknown_policy_on_peer(self, deployment):
        local, remote, _ = self.make_pair(deployment)

        def main():
            yield deployment.simulator.process(
                local.fetch_remote_secrets(remote.name, "ghost", "c", ["K"]))

        with pytest.raises(PolicyNotFoundError):
            deployment.simulator.run_process(main())

    def test_fetch_without_link_rejected(self, deployment):
        local = FederatedInstance(deployment.palaemon, Site.SAME_RACK,
                                  deployment.ca.root_public_key,
                                  make_network(deployment))

        def main():
            yield deployment.simulator.process(
                local.fetch_remote_secrets("nobody", "p", "c", ["K"]))

        with pytest.raises(AttestationError, match="no attested link"):
            deployment.simulator.run_process(main())

    def test_remote_fetch_latency_dominated_by_distance(self, deployment):
        local, remote, remote_service = self.make_pair(deployment)
        self.seed_remote_policy(deployment, remote_service)
        sim = deployment.simulator

        def main():
            start = sim.now
            yield sim.process(local.fetch_remote_secrets(
                remote.name, "producer_policy", "consumer_policy",
                ["SHARED_KEY"]))
            return sim.now - start

        elapsed = sim.run_process(main())
        assert elapsed >= calibration.RTT_7000_KM

    def test_federation_mesh_and_lookup(self, deployment):
        federation = Federation()
        network = make_network(deployment)
        local = FederatedInstance(deployment.palaemon, Site.SAME_RACK,
                                  deployment.ca.root_public_key, network)
        second = FederatedInstance(make_second_instance(deployment),
                                   Site.SAME_DC,
                                   deployment.ca.root_public_key, network)
        third = FederatedInstance(
            make_second_instance(deployment, name="palaemon-3"),
            Site.REGIONAL_300KM, deployment.ca.root_public_key, network)
        for instance in (local, second, third):
            federation.add(instance)
        deployment.simulator.run_process(federation.connect_all())
        assert len(local.peers()) == 2
        self.seed_remote_policy(deployment, second.service)
        assert federation.locate_policy("producer_policy") == second.name
        assert federation.locate_policy("nowhere") is None


class TestFailover:
    def make_coordinator(self, deployment, network=None):
        backup = make_second_instance(deployment, name="palaemon-backup")
        return FailoverCoordinator(
            deployment.palaemon, backup,
            network or make_network(deployment, b"repl-net"))

    def test_same_platform_backup_rejected(self, deployment):
        twin = PalaemonService(deployment.platform, BlockStore("twin"),
                               DeterministicRandom(b"twin"), name="twin")
        with pytest.raises(PolicyError, match="different platform"):
            FailoverCoordinator(deployment.palaemon, twin,
                                make_network(deployment))

    def test_replication_flows(self, deployment):
        coordinator = self.make_coordinator(deployment)

        def main():
            sequence = yield deployment.simulator.process(
                coordinator.replicate("tags", "app", b"\x01" * 32))
            return sequence

        assert deployment.simulator.run_process(main()) == 1
        assert coordinator.replication_lag() == 0

    def test_promotion_exposes_replicated_state(self, deployment):
        coordinator = self.make_coordinator(deployment)

        def run():
            yield deployment.simulator.process(
                coordinator.replicate("tags", "app", b"\x02" * 32))
            coordinator.primary_crashed()
            promoted = yield deployment.simulator.process(
                coordinator.promote_backup())
            return promoted

        promoted = deployment.simulator.run_process(run())
        assert promoted is coordinator.backup
        assert promoted.store.get("tags", "app") == b"\x02" * 32
        assert coordinator.epoch == 2

    def test_promotion_refused_while_primary_serves(self, deployment):
        coordinator = self.make_coordinator(deployment)

        def main():
            yield deployment.simulator.process(coordinator.promote_backup())

        with pytest.raises(PolicyError, match="primary is serving"):
            deployment.simulator.run_process(main())

    def test_fenced_primary_cannot_restart(self, deployment):
        coordinator = self.make_coordinator(deployment)

        def run():
            yield deployment.simulator.process(
                coordinator.replicate("tags", "app", b"\x03" * 32))
            coordinator.primary_crashed()
            yield deployment.simulator.process(coordinator.promote_backup())

        deployment.simulator.run_process(run())
        assert coordinator.verify_primary_fenced()

    def test_no_writes_after_promotion_via_old_path(self, deployment):
        coordinator = self.make_coordinator(deployment)

        def run():
            coordinator.primary_crashed()
            yield deployment.simulator.process(coordinator.promote_backup())
            yield deployment.simulator.process(
                coordinator.replicate("tags", "app", b"\x04" * 32))

        with pytest.raises(PolicyError, match="before promotion"):
            deployment.simulator.run_process(run())

    def test_batch_from_unknown_sender_is_dropped(self, deployment):
        """A forged replication batch is neither applied nor acknowledged,
        so a later promotion replays nothing."""
        network = make_network(deployment, b"repl-net")
        coordinator = self.make_coordinator(deployment, network)
        backup = coordinator.backup
        forger = network.endpoint("forger", Site.SAME_DC)
        forged = StateUpdate(sequence=1, table="tags", key="app",
                             value=b"\x66" * 32)

        def run():
            forger.send(network.endpoint(f"{backup.name}-repl", Site.SAME_DC),
                        {"kind": "repl", "updates": [forged]},
                        size_bytes=256, reply_to=forger)
            yield deployment.simulator.timeout(1.0)
            coordinator.primary_crashed()
            yield deployment.simulator.process(coordinator.promote_backup())

        deployment.simulator.run_process(run())
        assert forger.bytes_received == 0  # no ack went back
        assert coordinator.replication_lag() == 0
        promotions = [record.details for record
                      in backup.telemetry.audit_log.records
                      if record.kind == "failover.promote"]
        assert promotions == [{"backup": backup.name, "epoch": 2,
                               "replayed": 0, "applied_sequence": 0}]
        assert backup.store.get("tags", "app") is None
