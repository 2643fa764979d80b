"""Tests for the extension features: federation and fail-over."""

from dataclasses import is_dataclass

import pytest

from repro import calibration
from repro.core.dispatch import decode_reply
from repro.core.failover import REPLICA_ROW, FailoverCoordinator, StateUpdate
from repro.core.federation import FederatedInstance, Federation
from repro.core.policy import SecurityPolicy, ServiceSpec
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.signatures import KeyPair
from repro.errors import (
    AccessDeniedError,
    AttestationError,
    BadRequestError,
    NetworkError,
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

    def test_second_instance_on_one_endpoint_refused(self, deployment):
        """A second instance for one service would start a second serve
        loop on ``fed-{name}``; it is refused until the first stops."""
        local, remote, remote_service = self.make_pair(deployment)
        with pytest.raises(NetworkError, match="already has a running"):
            FederatedInstance(remote_service, remote.site,
                              deployment.ca.root_public_key, local.network)
        remote.stop()
        restarted = FederatedInstance(remote_service, remote.site,
                                      deployment.ca.root_public_key,
                                      local.network)
        deployment.simulator.run_process(local.peer_with(restarted))
        self.seed_remote_policy(deployment, remote_service)
        secrets = deployment.simulator.run_process(
            local.fetch_remote_secrets(remote.name, "producer_policy",
                                       "consumer_policy", ["SHARED_KEY"]))
        assert list(secrets) == ["SHARED_KEY"]

    def test_repeering_leaves_no_per_peering_state(self, deployment):
        """Each re-peering closes the connection it replaces, so neither
        server keeps a session per peering, and peers stay named by their
        certificates."""
        local, remote, remote_service = self.make_pair(deployment)
        sim = deployment.simulator
        for _ in range(3):
            sim.run_process(local.peer_with(remote))
        sim.run(until=sim.now + 1.0)  # the close records arrive
        for instance, peer in ((local, remote), (remote, local)):
            assert instance.peers() == [peer.name]
            assert len(instance._server._sessions) == 1
            containers = [value for value in vars(instance).values()
                          if isinstance(value, (dict, list, set))]
            assert containers and all(len(value) == 1
                                      for value in containers)
        self.seed_remote_policy(deployment, remote_service)
        secrets = sim.run_process(local.fetch_remote_secrets(
            remote.name, "producer_policy", "consumer_policy",
            ["SHARED_KEY"]))
        assert list(secrets) == ["SHARED_KEY"]

    def test_certificate_for_another_name_refused(self, deployment):
        """The certificate subject names the peer on every request, so a
        certificate issued for another name cannot peer."""
        network = make_network(deployment)
        local = FederatedInstance(deployment.palaemon, Site.SAME_RACK,
                                  deployment.ca.root_public_key, network)
        impostor = make_second_instance(deployment, name="palaemon-x")
        quote = impostor.platform.quoting_enclave.quote(
            impostor.enclave, sha256(impostor.public_key.to_bytes()))
        impostor.certificate = deployment.ca.issue_instance_certificate(
            quote, impostor.public_key, subject=deployment.palaemon.name)
        other = FederatedInstance(impostor, Site.SAME_DC,
                                  deployment.ca.root_public_key, network)
        with pytest.raises(AttestationError, match="certificate for"):
            deployment.simulator.run_process(local.peer_with(other))
        assert local.peers() == [] and other.peers() == []


def peered_backup(deployment, network=None, name="palaemon-backup"):
    """The deployment's instance and a backup on its own platform, peered
    over the federation link that replication rides."""
    network = network or make_network(deployment, b"repl-net")
    root = deployment.ca.root_public_key
    primary = FederatedInstance(deployment.palaemon, Site.SAME_DC, root,
                                network)
    backup = FederatedInstance(make_second_instance(deployment, name=name),
                               Site.SAME_DC, root, network)
    deployment.simulator.run_process(primary.peer_with(backup))
    return primary, backup


def run_replicate(deployment, coordinator, key, value):
    def main():
        sequence = yield deployment.simulator.process(
            coordinator.replicate("tags", key, value))
        return sequence

    return deployment.simulator.run_process(main())


def send_batch(deployment, sender, backup, updates):
    """One ``failover.replicate`` request over ``sender``'s peer link."""
    def main():
        reply = yield from sender.link(backup.name).request(
            {"route": "failover.replicate", "updates": updates})
        return reply

    return decode_reply(deployment.simulator.run_process(main()))


def held_updates(coordinator):
    """State updates the coordinator's own fields (not the instances')
    still reference."""
    pending = [value for name, value in vars(coordinator).items()
               if name not in ("primary", "backup", "active", "_federation")]
    held = 0
    while pending:
        value = pending.pop()
        if isinstance(value, StateUpdate):
            held += 1
        elif isinstance(value, dict):
            pending.extend(value.values())
        elif isinstance(value, (list, tuple, set)):
            pending.extend(value)
        elif is_dataclass(value):
            pending.extend(vars(value).values())
    return held


class TestFailover:
    def make_coordinator(self, deployment, network=None):
        return FailoverCoordinator(*peered_backup(deployment, network))

    def test_same_platform_backup_rejected(self, deployment):
        network = make_network(deployment)
        twin = PalaemonService(deployment.platform, BlockStore("twin"),
                               DeterministicRandom(b"twin"), name="twin")
        root = deployment.ca.root_public_key
        with pytest.raises(PolicyError, match="different platform"):
            FailoverCoordinator(
                FederatedInstance(deployment.palaemon, Site.SAME_DC, root,
                                  network),
                FederatedInstance(twin, Site.SAME_DC, root, network))

    def test_instances_that_are_not_peered_rejected(self, deployment):
        network = make_network(deployment)
        root = deployment.ca.root_public_key
        primary = FederatedInstance(deployment.palaemon, Site.SAME_DC, root,
                                    network)
        backup = FederatedInstance(
            make_second_instance(deployment, name="palaemon-backup"),
            Site.SAME_DC, root, network)
        with pytest.raises(PolicyError, match="not peered"):
            FailoverCoordinator(primary, backup)

    def test_replication_flows(self, deployment):
        coordinator = self.make_coordinator(deployment)
        assert run_replicate(deployment, coordinator, "app",
                             b"\x01" * 32) == 1
        assert coordinator.replication_lag() == 0
        assert coordinator.backup.store.get("tags", "app") == b"\x01" * 32

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
        so a later promotion exposes nothing."""
        network = make_network(deployment, b"repl-net")
        coordinator = self.make_coordinator(deployment, network)
        backup = coordinator.backup
        forger = network.endpoint("forger", Site.SAME_DC)
        forged = StateUpdate(sequence=1, table="tags", key="app",
                             value=b"\x66" * 32)

        def run():
            forger.send(network.endpoint(f"fed-{backup.name}", Site.SAME_DC),
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
                               "applied_sequence": 0}]
        assert backup.store.get("tags", "app") is None

    def test_batch_from_a_third_peer_is_refused(self, deployment):
        """Another attested peer shares the backup's federation server,
        but only the designated primary's batches are applied."""
        network = make_network(deployment, b"repl-net")
        primary, backup = peered_backup(deployment, network)
        coordinator = FailoverCoordinator(primary, backup)
        third = FederatedInstance(
            make_second_instance(deployment, name="palaemon-3"),
            Site.SAME_DC, deployment.ca.root_public_key, network)
        deployment.simulator.run_process(third.peer_with(backup))
        forged = StateUpdate(sequence=1, table="tags", key="app",
                             value=b"\x66" * 32)
        with pytest.raises(AccessDeniedError, match="designated primary"):
            send_batch(deployment, third, backup, [forged])
        assert coordinator.backup.store.get("tags", "app") is None
        assert coordinator.backup.store.get(*REPLICA_ROW) == {
            "primary": coordinator.primary.name, "applied_sequence": 0}
        assert coordinator.replication_lag() == 0

    def test_update_aimed_at_the_replication_row_refused(self, deployment):
        primary, backup = peered_backup(deployment)
        coordinator = FailoverCoordinator(primary, backup)
        row = {"primary": "palaemon-3", "applied_sequence": 0}
        with pytest.raises(BadRequestError):
            deployment.simulator.run_process(
                coordinator.replicate(*REPLICA_ROW, row))
        with pytest.raises(BadRequestError):
            send_batch(deployment, primary, backup,
                       [StateUpdate(1, "tags", "app", b"\x05" * 32),
                        StateUpdate(2, *REPLICA_ROW, row)])
        assert backup.service.store.get(*REPLICA_ROW) == {
            "primary": primary.name, "applied_sequence": 0}
        assert backup.service.store.get("tags", "app") is None

    def test_backup_rebuilt_from_its_volume_keeps_acked_updates(
            self, deployment):
        network = make_network(deployment, b"repl-net")
        primary, backup = peered_backup(deployment, network)
        coordinator = FailoverCoordinator(primary, backup)
        values = {f"app-{index}": bytes([index]) * 32 for index in range(3)}
        for key, value in values.items():
            run_replicate(deployment, coordinator, key, value)

        old = backup.service
        deployment.simulator.run_process(old.shutdown())
        backup.stop()
        rebuilt = PalaemonService(old.platform, old.store.store,
                                  DeterministicRandom(b"rebuilt"),
                                  name=old.name)
        deployment.simulator.run_process(rebuilt.start())
        rebuilt.obtain_certificate(deployment.ca)
        for key, value in values.items():
            assert rebuilt.store.get("tags", key) == value
        assert rebuilt.store.get(*REPLICA_ROW) == {
            "primary": primary.name, "applied_sequence": 3}

        rebuilt_fed = FederatedInstance(rebuilt, Site.SAME_DC,
                                        deployment.ca.root_public_key,
                                        network)
        deployment.simulator.run_process(primary.peer_with(rebuilt_fed))
        coordinator = FailoverCoordinator(primary, rebuilt_fed)
        assert coordinator.replication_lag() == 0
        coordinator.primary_crashed()
        promoted = deployment.simulator.run_process(
            coordinator.promote_backup())
        assert promoted is rebuilt
        for key, value in values.items():
            assert promoted.store.get("tags", key) == value
        promotions = [record.details for record
                      in rebuilt.telemetry.audit_log.records
                      if record.kind == "failover.promote"]
        assert promotions == [{"backup": rebuilt.name, "epoch": 2,
                               "applied_sequence": 3}]

    def test_coordinator_holds_no_per_update_record(self, deployment):
        coordinator = self.make_coordinator(deployment)
        for index in range(200):
            run_replicate(deployment, coordinator, f"app-{index}",
                          index.to_bytes(32, "big"))
        assert held_updates(coordinator) == 0
        assert coordinator.replication_lag() == 0
        assert coordinator.backup.store.get(*REPLICA_ROW)[
            "applied_sequence"] == 200
        assert coordinator.backup.store.get("tags", "app-199") == (
            (199).to_bytes(32, "big"))
