"""Tests for the extension features: federation and fail-over."""

import pickle

import pytest

from repro import calibration
from repro.core.client import PalaemonClient
from repro.core.dispatch import decode_reply
from repro.core.failover import REPLICA_ROW, FailoverCoordinator
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
    PolicyExistsError,
    PolicyNotFoundError,
    RetryExhaustedError,
)
from repro.fs.blockstore import BlockStore
from repro.sim.faults import FaultPlan
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
    """The deployment's instance, holding ``ml_policy``, and a backup on
    its own platform, peered over the federation link that replication
    rides."""
    network = network or make_network(deployment, b"repl-net")
    deployment.palaemon.create_policy(
        deployment.make_policy(with_board=False),
        deployment.client.certificate)
    root = deployment.ca.root_public_key
    primary = FederatedInstance(deployment.palaemon, Site.SAME_DC, root,
                                network)
    backup = FederatedInstance(make_second_instance(deployment, name=name),
                               Site.SAME_DC, root, network)
    deployment.simulator.run_process(primary.peer_with(backup))
    return primary, backup


def push_tag(deployment, tag, service="ml_app"):
    """A timed tag update on the primary; returns once it is acked."""
    def main():
        yield deployment.simulator.process(
            deployment.palaemon.update_tag("ml_policy", service, tag))

    deployment.simulator.run_process(main())


def tag_on(service, name="ml_app"):
    return service.get_tag_instant("ml_policy", name)


def batch(tables=None, operations=()):
    """A serialized batch in the format the primary's store ships."""
    return pickle.dumps((dict(tables or {}), list(operations)))


def send_batch(deployment, sender, backup, batches):
    """One ``failover.replicate`` request over ``sender``'s peer link."""
    def main():
        reply = yield from sender.link(backup.name).request(
            {"route": "failover.replicate", "batches": batches})
        return reply

    return decode_reply(deployment.simulator.run_process(main()))


def held_batches(coordinator):
    """Serialized batches the coordinator's own fields (not the
    instances') still reference."""
    pending = [value for name, value in vars(coordinator).items()
               if name not in ("primary", "backup", "_federation")]
    held = 0
    while pending:
        value = pending.pop()
        if isinstance(value, bytes):
            held += 1
        elif isinstance(value, dict):
            pending.extend(value.values())
        elif isinstance(value, (list, tuple, set)):
            pending.extend(value)
    return held


def drop_replication(deployment, primary, backup):
    """Drop every message on the primary→backup peer link from now on."""
    plan = FaultPlan(deployment.simulator, deployment.palaemon.telemetry)
    plan.drop_link(f"fed-{primary.name}-to-{backup.name}",
                   f"fed-{backup.name}", start=deployment.simulator.now)
    plan.attach(primary.network)


def promote(deployment, coordinator):
    coordinator.primary_crashed()
    return deployment.simulator.run_process(coordinator.promote_backup())


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
        push_tag(deployment, b"\x01" * 32)
        assert coordinator.replication_lag() == 0
        assert tag_on(coordinator.backup) == b"\x01" * 32

    def test_timed_tag_update_returns_on_the_backup_ack(self, deployment):
        primary, backup = peered_backup(deployment)
        coordinator = FailoverCoordinator(primary, backup)
        deployment.simulator.run()  # the enrolment
        FaultPlan(deployment.simulator, deployment.palaemon.telemetry
                  ).delay_link(f"fed-{primary.name}-to-{backup.name}",
                               f"fed-{backup.name}", extra_delay=0.2
                               ).attach(primary.network)
        sim = deployment.simulator

        def main():
            started = sim.now
            yield sim.process(deployment.palaemon.update_tag(
                "ml_policy", "ml_app", b"\x07" * 32))
            return sim.now - started, coordinator.replication_lag()

        # The disk commit takes under 0.03 s; the ack needs 0.2 s each way.
        elapsed, lag = sim.run_process(main())
        assert elapsed > 0.4 and lag == 0
        assert tag_on(coordinator.backup) == b"\x07" * 32

    def test_dropped_link_fails_the_update_and_promotion_hides_it(
            self, deployment):
        primary, backup = peered_backup(deployment)
        coordinator = FailoverCoordinator(primary, backup)
        push_tag(deployment, b"\x01" * 32)
        drop_replication(deployment, primary, backup)
        with pytest.raises(RetryExhaustedError):
            push_tag(deployment, b"\x02" * 32)
        assert coordinator.replication_lag() == 1
        promoted = promote(deployment, coordinator)
        assert tag_on(promoted) == b"\x01" * 32

    def test_concurrent_updates_share_one_batch_and_its_outcome(
            self, deployment):
        primary, backup = peered_backup(deployment)
        policy = deployment.make_policy(name="second", with_board=False)
        deployment.palaemon.create_policy(policy,
                                          deployment.client.certificate)
        coordinator = FailoverCoordinator(primary, backup)
        sim = deployment.simulator
        outcomes = []

        def update(policy_name, tag):
            try:
                yield sim.process(deployment.palaemon.update_tag(
                    policy_name, "ml_app", tag))
                outcomes.append("ok")
            except RetryExhaustedError as exc:
                outcomes.append(exc)

        def both():
            yield sim.all_of([sim.process(update("ml_policy", b"\x01" * 32)),
                              sim.process(update("second", b"\x02" * 32))])

        sim.run_process(both())
        assert outcomes == ["ok", "ok"]
        assert coordinator.backup.store.get(*REPLICA_ROW)[
            "applied_sequence"] == 2  # the enrolment and one batch
        outcomes.clear()
        drop_replication(deployment, primary, backup)
        sim.run_process(both())
        assert len(outcomes) == 2 and outcomes[0] is outcomes[1]
        assert isinstance(outcomes[0], RetryExhaustedError)
        assert coordinator.replication_lag() == 1

    def test_waiter_shipped_by_an_instant_commit_waits_for_its_ack(
            self, deployment):
        """A queued tag update whose row an instant commit shipped returns
        only on that batch's ack: with the link dropped after the leader's
        ack, it raises, and promotion does not expose it."""
        primary, backup = peered_backup(deployment)
        for name in ("second", "third"):
            deployment.palaemon.create_policy(
                deployment.make_policy(name=name, with_board=False),
                deployment.client.certificate)
        coordinator = FailoverCoordinator(primary, backup)
        sim = deployment.simulator
        sim.run()  # the enrolment
        link = (f"fed-{primary.name}-to-{backup.name}", f"fed-{backup.name}")
        # The leader's batch arrives at +0.2 s and its ack at +0.4 s; the
        # instant commit's batch, sent after that ack, is dropped.
        FaultPlan(sim, deployment.palaemon.telemetry).delay_link(
            *link, extra_delay=0.2).drop_link(
            *link, start=sim.now + 0.3).attach(primary.network)
        outcomes = {}

        def update(policy_name, tag):
            try:
                yield sim.process(deployment.palaemon.update_tag(
                    policy_name, "ml_app", tag))
                outcomes[policy_name] = "ok"
            except RetryExhaustedError:
                outcomes[policy_name] = "gave up"

        def main():
            leader = sim.process(update("ml_policy", b"\x01" * 32))
            yield sim.timeout(0.005)  # the leader has flushed
            waiter = sim.process(update("second", b"\x02" * 32))
            yield sim.timeout(0.005)  # "second" waits for the leader
            deployment.palaemon.update_tag_instant("third", "ml_app",
                                                   b"\x03" * 32)
            yield sim.all_of([leader, waiter])

        sim.run_process(main())
        assert outcomes == {"ml_policy": "ok", "second": "gave up"}
        assert coordinator.replication_lag() == 1
        promoted = promote(deployment, coordinator)
        assert tag_on(promoted) == b"\x01" * 32
        assert promoted.get_tag_instant("second", "ml_app") is None

    def test_promotion_exposes_replicated_state(self, deployment):
        coordinator = self.make_coordinator(deployment)
        push_tag(deployment, b"\x02" * 32)
        promoted = promote(deployment, coordinator)
        assert promoted is coordinator.backup
        assert tag_on(promoted) == b"\x02" * 32
        assert coordinator.epoch == 2

    def test_promotion_refused_while_primary_serves(self, deployment):
        coordinator = self.make_coordinator(deployment)

        def main():
            yield deployment.simulator.process(coordinator.promote_backup())

        with pytest.raises(PolicyError, match="primary is serving"):
            deployment.simulator.run_process(main())

    def test_fenced_primary_cannot_restart(self, deployment):
        coordinator = self.make_coordinator(deployment)
        push_tag(deployment, b"\x03" * 32)
        promote(deployment, coordinator)
        assert coordinator.verify_primary_fenced()

    def test_no_writes_after_promotion_via_old_path(self, deployment):
        """The crashed primary takes no write, so none reaches the
        promoted backup."""
        coordinator = self.make_coordinator(deployment)
        deployment.simulator.run()  # the enrolment is acked
        promoted = promote(deployment, coordinator)
        applied = promoted.store.get(*REPLICA_ROW)
        with pytest.raises(PolicyError, match="not serving"):
            push_tag(deployment, b"\x04" * 32)
        assert promoted.store.get(*REPLICA_ROW) == applied
        assert tag_on(promoted) is None

    def test_batch_from_unknown_sender_is_dropped(self, deployment):
        """A forged replication batch is neither applied nor acknowledged,
        so a later promotion exposes nothing."""
        network = make_network(deployment, b"repl-net")
        coordinator = self.make_coordinator(deployment, network)
        backup = coordinator.backup
        forger = network.endpoint("forger", Site.SAME_DC)
        forged = batch(operations=[("tags", "app", b"\x66" * 32)])

        def run():
            forger.send(network.endpoint(f"fed-{backup.name}", Site.SAME_DC),
                        {"kind": "repl", "batches": [(2, forged)]},
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
                               "applied_sequence": 1}]
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
        forged = batch(operations=[("tags", "app", b"\x66" * 32)])
        with pytest.raises(AccessDeniedError, match="designated primary"):
            send_batch(deployment, third, backup, [(2, forged)])
        assert coordinator.backup.store.get("tags", "app") is None
        assert coordinator.backup.store.get(*REPLICA_ROW) == {
            "primary": coordinator.primary.name, "applied_sequence": 1}
        assert coordinator.replication_lag() == 0

    def test_update_aimed_at_the_replication_row_refused(self, deployment):
        primary, backup = peered_backup(deployment)
        coordinator = FailoverCoordinator(primary, backup)
        deployment.simulator.run()  # the enrolment
        row = {"primary": "palaemon-3", "applied_sequence": 0}
        for aimed in (batch(operations=[("tags", "app", b"\x05" * 32),
                                        (*REPLICA_ROW, row)]),
                      batch(tables={REPLICA_ROW[0]: {}})):
            with pytest.raises(BadRequestError):
                send_batch(deployment, primary, backup,
                           [(2, batch(operations=[("tags", "x", b"")])),
                            (3, aimed)])
        assert backup.service.store.get(*REPLICA_ROW) == {
            "primary": primary.name, "applied_sequence": 1}
        assert backup.service.store.get("tags", "x") is None
        assert backup.service.store.get("tags", "app") is None
        assert coordinator.replication_lag() == 0

    def test_batch_that_skips_a_position_refused(self, deployment):
        primary, backup = peered_backup(deployment)
        coordinator = FailoverCoordinator(primary, backup)
        deployment.simulator.run()  # the enrolment: position 1
        skipping = [(2, batch(operations=[("tags", "x", b"")])),
                    (4, batch(operations=[("tags", "y", b"")]))]
        with pytest.raises(BadRequestError, match="is not batch"):
            send_batch(deployment, primary, backup, skipping)
        assert backup.service.store.get("tags", "x") is None
        assert coordinator.replication_lag() == 0

    def test_policy_delete_reaches_the_backup(self, deployment):
        coordinator = self.make_coordinator(deployment)
        deployment.simulator.run()
        assert coordinator.backup.list_policies() == ["ml_policy"]
        deployment.palaemon.delete_policy("ml_policy",
                                          deployment.client.certificate)
        deployment.simulator.run()
        assert coordinator.backup.list_policies() == []
        assert coordinator.backup.store.get("owners", "ml_policy") is None

    def test_touched_table_ships_whole(self, deployment):
        coordinator = self.make_coordinator(deployment)
        store = deployment.palaemon.store
        store.table("state")["ml_policy"]["ml_app"].expected_tag = b"\x09" * 32
        store.touch("state")
        store.commit_instant()
        deployment.simulator.run()
        assert coordinator.replication_lag() == 0
        assert tag_on(coordinator.backup) == b"\x09" * 32

    def test_enrolment_makes_the_backup_a_mirror(self, deployment):
        primary, backup = peered_backup(deployment)
        own = deployment.make_policy(name="backup_only", with_board=False)
        backup.service.create_policy(own, deployment.client.certificate)
        FailoverCoordinator(primary, backup)
        deployment.simulator.run()
        assert backup.service.list_policies() == ["ml_policy"]
        assert backup.service.store.get("owners", "backup_only") is None

    def test_backup_rebuilt_from_its_volume_keeps_acked_updates(
            self, deployment):
        network = make_network(deployment, b"repl-net")
        primary, backup = peered_backup(deployment, network)
        coordinator = FailoverCoordinator(primary, backup)
        values = [bytes([index]) * 32 for index in range(3)]
        for value in values:
            push_tag(deployment, value)

        old = backup.service
        deployment.simulator.run_process(old.shutdown())
        backup.stop()
        rebuilt = PalaemonService(old.platform, old.store.store,
                                  DeterministicRandom(b"rebuilt"),
                                  name=old.name)
        deployment.simulator.run_process(rebuilt.start())
        rebuilt.obtain_certificate(deployment.ca)
        assert tag_on(rebuilt) == values[-1]
        assert rebuilt.store.get(*REPLICA_ROW) == {
            "primary": primary.name, "applied_sequence": 4}

        rebuilt_fed = FederatedInstance(rebuilt, Site.SAME_DC,
                                        deployment.ca.root_public_key,
                                        network)
        deployment.simulator.run_process(primary.peer_with(rebuilt_fed))
        coordinator = FailoverCoordinator(primary, rebuilt_fed)
        assert coordinator.replication_lag() == 1  # the new enrolment
        deployment.simulator.run()
        assert coordinator.replication_lag() == 0
        promoted = promote(deployment, coordinator)
        assert promoted is rebuilt
        assert tag_on(promoted) == values[-1]
        promotions = [record.details for record
                      in rebuilt.telemetry.audit_log.records
                      if record.kind == "failover.promote"]
        assert promotions == [{"backup": rebuilt.name, "epoch": 2,
                               "applied_sequence": 5}]

    def test_coordinator_holds_no_per_update_record(self, deployment):
        coordinator = self.make_coordinator(deployment)
        for index in range(200):
            push_tag(deployment, index.to_bytes(32, "big"))
        assert held_batches(coordinator) == 0
        assert coordinator.replication_lag() == 0
        assert coordinator.backup.store.get(*REPLICA_ROW)[
            "applied_sequence"] == 201
        assert tag_on(coordinator.backup) == (199).to_bytes(32, "big")


class TestFailoverProbe:
    """A backup designated after the primary already holds state: the
    enrolment carries it, and a later flush carries the next write."""

    def test_promoted_backup_holds_the_primary_state(self, deployment):
        policy = SecurityPolicy(
            name="ml_policy",
            services=[ServiceSpec(name=name, image_name="img",
                                  mrenclaves=[deployment.app_image
                                              .mrenclave()])
                      for name in ("ml_app", "ml_worker")])
        deployment.palaemon.create_policy(policy,
                                          deployment.client.certificate)
        deployment.palaemon.update_tag_instant("ml_policy", "ml_app",
                                               b"\x01" * 32)
        network = make_network(deployment, b"repl-net")
        root = deployment.ca.root_public_key
        primary = FederatedInstance(deployment.palaemon, Site.SAME_DC, root,
                                    network)
        backup = FederatedInstance(make_second_instance(deployment),
                                   Site.SAME_DC, root, network)
        deployment.simulator.run_process(primary.peer_with(backup))
        coordinator = FailoverCoordinator(primary, backup)
        push_tag(deployment, b"\x02" * 32, service="ml_worker")
        assert coordinator.replication_lag() == 0

        promoted = promote(deployment, coordinator)
        assert promoted.list_policies() == ["ml_policy"]
        assert tag_on(promoted, "ml_app") == b"\x01" * 32
        assert tag_on(promoted, "ml_worker") == b"\x02" * 32
        rival = PalaemonClient("client-2", DeterministicRandom(b"client-2"))
        rival.attest_instance_via_ca(promoted, root,
                                     now=deployment.simulator.now)
        with pytest.raises(PolicyExistsError):
            rival.create_policy(promoted, policy)
