"""Fail-over as a state machine.

Hypothesis drives timed ``tag.update`` requests and instant
``volume_tag.update`` requests (whose flush also ships a queued tag
update's row) through the primary's ``Dispatcher.dispatch``, drop and
duplicate windows on the primary→backup peer link, and virtual time;
every run ends with a primary crash and the backup's promotion, as a rule
or else at teardown, while batches may still be in flight. Two
invariants hold on the promoted backup, at every step after the
promotion:

- every ``tag.update`` that returned ok can be read there, or a later
  write of the same tag can;
- its tags, and its volume tag, equal the primary's at the position the
  backup applied,
  so no batch was reordered and no unacknowledged write shows out of
  order.
"""

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.failover import REPLICA_ROW, FailoverCoordinator
from repro.core.federation import FederatedInstance
from repro.core.policy import SecurityPolicy, ServiceSpec, VolumeSpec
from repro.crypto.primitives import DeterministicRandom
from repro.sim.faults import FaultPlan
from repro.sim.network import Network, Site

from tests.core.conftest import Deployment, make_second_instance

SERVICES = ("svc-a", "svc-b")


def tags_of(service):
    """Each service's expected tag and the volume's; ``None`` before the
    policy arrives."""
    states = service.store.get("state", "app") or {}
    tags = {name: states[name].expected_tag if name in states else None
            for name in SERVICES}
    tags["volume"] = (service.store.get("volume_tags", "app") or {}).get(
        "data")
    return tags


class FailoverMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        deployment = Deployment(seed=b"failover-machine")
        self.sim = deployment.simulator
        self.primary = deployment.palaemon
        self.primary.create_policy(SecurityPolicy(
            name="app",
            services=[ServiceSpec(name=name, image_name="img",
                                  mrenclaves=[deployment.app_image
                                              .mrenclave()])
                      for name in SERVICES],
            volumes=[VolumeSpec(name="data")]), deployment.client.certificate)
        network = Network(self.sim, DeterministicRandom(b"machine-net"))
        root = deployment.ca.root_public_key
        primary = FederatedInstance(self.primary, Site.SAME_DC, root, network)
        backup = FederatedInstance(make_second_instance(deployment, "backup"),
                                   Site.SAME_DC, root, network)
        self.sim.run_process(primary.peer_with(backup))
        self.link = (f"fed-{primary.name}-to-{backup.name}",
                     f"fed-{backup.name}")
        # A batch is in flight for 0.1 s, so rules land while it flies.
        self.plan = FaultPlan(self.sim, self.primary.telemetry,
                              seed=b"failover-machine").delay_link(
            *self.link, extra_delay=0.1).attach(network)
        self.coordinator = FailoverCoordinator(primary, backup)
        #: The tags at each shipped position: none before the enrolment
        #: (position 1) is applied, then the primary's at each flush.
        self.shipped = [tags_of(backup.service), tags_of(self.primary)]
        ship = self.coordinator.ship

        def recording_ship(tables, operations):
            self.shipped.append(tags_of(self.primary))
            ship(tables, operations)

        self.coordinator.ship = recording_ship
        #: Per service, each write in the order sent, as [tag, outcome].
        self.writes = {name: [] for name in SERVICES}
        self.sent = 0
        self.promoted = None

    def serving(self):
        return self.promoted is None

    @precondition(serving)
    @rule(service=st.sampled_from(SERVICES))
    def tag_update(self, service):
        self.sent += 1
        write = [self.sent.to_bytes(32, "big"), "pending"]
        self.writes[service].append(write)

        def run():
            reply = yield from self.primary.dispatcher.dispatch(
                {"route": "tag.update", "policy": "app", "service": service,
                 "tag": write[0]})
            write[1] = "ok" if "ok" in reply else reply["kind"]

        self.sim.process(run(), name="machine-tag-update")
        self.sim.run(until=self.sim.now)  # it flushes before the next rule

    @precondition(serving)
    @rule()
    def volume_tag_update(self):
        """An instant commit: it flushes, and ships, every dirty row."""
        self.sent += 1
        request = {"route": "volume_tag.update", "policy": "app",
                   "volume": "data", "tag": self.sent.to_bytes(32, "big")}

        def run():
            yield from self.primary.dispatcher.dispatch(request)

        self.sim.process(run(), name="machine-volume-tag-update")
        self.sim.run(until=self.sim.now)

    @precondition(serving)
    @rule(seconds=st.sampled_from((0.2, 1.0, 3.0)))
    def drop_window(self, seconds):
        self.plan.drop_link(*self.link, start=self.sim.now,
                            end=self.sim.now + seconds)

    @precondition(serving)
    @rule(seconds=st.sampled_from((0.2, 1.0)))
    def duplicate_window(self, seconds):
        self.plan.duplicate_link(*self.link, probability=1.0,
                                 start=self.sim.now,
                                 end=self.sim.now + seconds)

    @rule(seconds=st.sampled_from((0.01, 0.1, 0.5, 2.0)))
    def advance(self, seconds):
        """Also after promotion: nothing late may change the backup."""
        self.sim.run(until=self.sim.now + seconds)

    @precondition(serving)
    @rule()
    def crash_and_promote(self):
        """Batches still in flight reach the backup after its promotion,
        which refuses them."""
        self.coordinator.primary_crashed()
        promotion = self.sim.process(self.coordinator.promote_backup())
        self.sim.run(until=self.sim.now)
        self.promoted = promotion.value
        self.applied = self.promoted.store.get(*REPLICA_ROW)[
            "applied_sequence"]

    @invariant()
    def acked_updates_survive(self):
        if self.promoted is None:
            return
        promoted = tags_of(self.promoted)
        for name, writes in self.writes.items():
            acked = [index for index, (_tag, outcome) in enumerate(writes)
                     if outcome == "ok"]
            # The last acked write or a later one; with no ack, any write
            # or none.
            since = acked[-1] if acked else 0
            allowed = {tag for tag, _outcome in writes[since:]}
            if not acked:
                allowed.add(None)
            assert promoted[name] in allowed, (name, writes)

    @invariant()
    def backup_is_the_primary_at_its_applied_position(self):
        if self.promoted is None:
            return
        applied = self.promoted.store.get(*REPLICA_ROW)["applied_sequence"]
        assert applied == self.applied  # nothing applied after promotion
        assert tags_of(self.promoted) == self.shipped[applied]

    def teardown(self):
        if self.promoted is None:
            self.crash_and_promote()
            self.acked_updates_survive()
            self.backup_is_the_primary_at_its_applied_position()


TestFailoverMachine = FailoverMachine.TestCase
TestFailoverMachine.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
