"""End-to-end tests for the chaos scenario and its recovery guarantees."""

import pytest

from repro.chaos import render_summary, run_chaos
from repro.core.rollback import RollbackGuard
from repro.core.store import PolicyStore
from repro.crypto.primitives import DeterministicRandom
from repro.errors import CounterUnavailableError
from repro.fs.blockstore import BlockStore
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim.core import Simulator
from repro.sim.faults import FaultPlan
from repro.tee.counters import PlatformCounterService


#: The exact seed-7 report. Any change to a fault count, a retry outcome,
#: the virtual end time or the audit head shows up here, not only a
#: change in whether the run reproduces itself.
SEED_7_REPORT = """\
chaos recovery summary
  audit_head: f21e34a0852595651112431566e69877ff353345e3fa7621aad8e19577067b4b
  audit_records: 18
  counter_outage_error: CounterUnavailableError
  faults_injected:
    blackout: 4
    counter_outage: 3
    drop: 6
    duplicate: 2
    store_fault: 3
  federation_fetch: recovered
  promoted: palaemon-2
  promoted_epoch: 2
  promoted_tag: acked
  replication_duplicated: applied_sequence=3 replayed_dropped=1
  replication_giveup: after-retries
  replication_lag: 1
  rest_attestation: recovered
  retries_by_operation:
    failover.replicate:giveup: 1
    failover.replicate:retry: 4
    federation.fetch:recovered: 1
    federation.fetch:retry: 2
    instance.install:recovered: 1
    instance.install:retry: 2
    rest.instance.describe:recovered: 1
    rest.instance.describe:retry: 4
    tag.update:recovered: 1
    tag.update:retry: 3
  seed: 7
  sim_time: 42.892127
  tag_update: recovered
  third_instance: started"""


@pytest.fixture(scope="module")
def summary():
    return run_chaos(7)


class TestDeterminism:
    def test_seed_7_report_is_pinned(self, summary):
        assert render_summary(summary) == SEED_7_REPORT

    def test_same_seed_is_byte_identical(self, summary):
        again = run_chaos(7)
        assert render_summary(summary) == render_summary(again)
        assert summary["audit_head"] == again["audit_head"]

    def test_different_seed_differs(self, summary):
        other = run_chaos(11)
        assert summary["audit_head"] != other["audit_head"]

    def test_audit_chain_verifies(self, summary):
        assert summary["audit_records"] > 0


class TestRecovery:
    def test_partition_heals_within_retry_budget(self, summary):
        assert summary["federation_fetch"] == "recovered"
        assert summary["retries_by_operation"][
            "federation.fetch:recovered"] == 1
        assert summary["retries_by_operation"]["federation.fetch:retry"] >= 1

    def test_store_fault_recovers(self, summary):
        assert summary["tag_update"] == "recovered"
        assert summary["faults_injected"]["store_fault"] >= 1

    def test_rest_blackout_recovers(self, summary):
        assert summary["rest_attestation"] == "recovered"
        assert summary["faults_injected"]["blackout"] >= 1

    def test_counter_outage_fails_loudly_then_recovers(self, summary):
        assert summary["counter_outage_error"] == "CounterUnavailableError"
        assert summary["third_instance"] == "started"

    def test_promotion_replays_only_acked_updates(self, summary):
        assert summary["replication_giveup"] == "after-retries"
        assert summary["replication_lag"] == 1
        assert summary["promoted"] == "palaemon-2"
        assert summary["promoted_tag"] == "acked"

    def test_duplicated_replication_is_applied_once(self, summary):
        # The window duplicates the acked tag update's batch and its ack
        # (one fault each way); the backup's anti-replay window drops the
        # second copy. Position 3: the enrolment, phase C's one successful
        # attempt (its three failed attempts shipped nothing), and this
        # batch.
        assert summary["faults_injected"]["duplicate"] == 2
        assert summary["replication_duplicated"] == (
            "applied_sequence=3 replayed_dropped=1")

    def test_bounded_wall_clock(self, summary):
        # Every phase finishes under its retry budget: the whole run is
        # bounded, not an unbounded wait on the slowest fault window.
        assert summary["sim_time"] < 60.0


class TestCounterOutageUnit:
    """The satellite fix in isolation: an outage must propagate, never
    mint a fresh counter (which would discard rollback protection)."""

    def make_guard(self, sim, counters):
        rng = DeterministicRandom(b"outage-unit")
        store = PolicyStore(sim, BlockStore(), rng.fork(b"key").bytes(32),
                            rng.fork(b"store"))
        return RollbackGuard(store, counters, "c")

    def test_outage_propagates_from_ensure_counter(self):
        sim = Simulator()
        counters = PlatformCounterService(sim)
        FaultPlan(sim, NULL_TELEMETRY).counter_outage(
            counters.fault_name, end=1.0).attach(counters)
        guard = self.make_guard(sim, counters)
        with pytest.raises(CounterUnavailableError):
            guard.ensure_counter()
        # Crucially: the outage did not silently create the counter.
        sim.run(until=1.0)
        with pytest.raises(Exception) as info:
            counters.read("c")
        assert type(info.value).__name__ == "CounterNotFoundError"
        guard.ensure_counter()  # outage over: now it really is created
        assert counters.read("c") == 0


class TestRenderSummary:
    def test_sorted_and_stable(self):
        text = render_summary({"b": 1, "a": {"z": 2, "y": 3}})
        assert text.splitlines() == [
            "chaos recovery summary",
            "  a:",
            "    y: 3",
            "    z: 2",
            "  b: 1",
        ]
