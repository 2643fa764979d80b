"""Tests for the encrypted policy store and the Fig 6 rollback protocol."""

import pytest

from repro.core.rollback import RollbackGuard
from repro.core.service import PalaemonService
from repro.core.store import _COMMIT_LATENCY_SECONDS, PolicyStore
from repro.crypto.primitives import DeterministicRandom
from repro.errors import (
    ConcurrentInstanceError,
    IntegrityError,
    PolicyValidationError,
    StaleDatabaseError,
)
from repro.fs.blockstore import BlockStore
from repro.sim.core import Simulator
from repro.tee.counters import PlatformCounterService

from tests.core.conftest import Deployment
from tests.doubles import rollback_counter, tamper


def make_store(store=None, seed=b"store-tests", sim=None):
    sim = sim or Simulator()
    store = store if store is not None else BlockStore()
    rng = DeterministicRandom(seed)
    return PolicyStore(sim, store, rng.fork(b"db-key").bytes(32),
                       rng.fork(b"store")), store, sim


def snapshot_path(backing, table):
    """The one snapshot blob of ``table`` on the volume."""
    [path] = [path for path in backing.list()
              if path.startswith(f"/palaemon.db.snap/{table}.")]
    return path


def logged_store():
    """A store whose current epoch holds three log records, plus a clone
    of its volume taken before the third one."""
    db, backing, _ = make_store()
    for index in range(20):
        db.put("t", f"k{index}", b"v%d" % index)
    db.commit_instant()  # the first flush writes snapshots
    db.put("t", "k1", b"first")
    db.commit_instant()
    db.put("t", "k2", b"second")
    db.commit_instant()
    clone = BlockStore()
    clone.restore(backing.snapshot())
    db.put("t", "k3", b"third")
    db.commit_instant()
    records = [path for path in backing.list()
               if path.startswith("/palaemon.db.log/")]
    assert len(records) == 3
    return db, backing, clone, records


class TestLogTampering:
    """Every way of editing the log on the volume raises IntegrityError."""

    def test_untouched_log_replays(self):
        _, backing, _, _ = logged_store()
        reopened, _, _ = make_store(store=backing)
        assert reopened.get("t", "k3") == b"third"
        assert reopened.get("t", "k4") == b"v4"

    def test_swapped_record_detected(self):
        """A validly sealed record for the same position, from a fork of
        the volume, fails the manifest's hash chain."""
        _, backing, clone, records = logged_store()
        forked, _, _ = make_store(store=clone)
        forked.put("t", "k3", b"forked")
        forked.commit_instant()
        tamper(backing, records[2], clone.read(records[2]))
        with pytest.raises(IntegrityError, match="log does not match"):
            make_store(store=backing)

    def test_truncated_log_detected(self):
        _, backing, _, records = logged_store()
        backing.delete(records[2])
        with pytest.raises(IntegrityError, match="missing"):
            make_store(store=backing)

    def test_truncated_record_detected(self):
        _, backing, _, records = logged_store()
        tamper(backing, records[1], backing.read(records[1])[:-8])
        with pytest.raises(IntegrityError):
            make_store(store=backing)

    def test_reordered_records_detected(self):
        _, backing, _, records = logged_store()
        first, second = backing.read(records[0]), backing.read(records[1])
        tamper(backing, records[0], second)
        tamper(backing, records[1], first)
        with pytest.raises(IntegrityError):
            make_store(store=backing)

    def test_replayed_record_detected(self):
        """A record from an earlier epoch that used the same path cannot
        stand in for the current one."""
        db, backing, _, records = logged_store()
        old = backing.read(records[0])
        for _ in range(2):  # two compactions: back on the same paths
            db.touch("t")
            db.commit_instant()
        db.put("t", "k1", b"again")
        db.commit_instant()
        assert backing.exists(records[0])
        tamper(backing, records[0], old)
        with pytest.raises(IntegrityError):
            make_store(store=backing)

    def test_record_copied_to_another_position_detected(self):
        _, backing, _, records = logged_store()
        tamper(backing, records[2], backing.read(records[1]))
        with pytest.raises(IntegrityError):
            make_store(store=backing)


class TestPolicyStore:
    def test_put_get_delete(self):
        db, _, _ = make_store()
        db.put("policies", "p1", {"name": "p1"})
        assert db.get("policies", "p1") == {"name": "p1"}
        assert ("policies", "p1") in db
        db.delete("policies", "p1")
        assert db.get("policies", "p1") is None

    def test_get_default(self):
        db, _, _ = make_store()
        assert db.get("t", "missing", default=42) == 42

    def test_keys_sorted(self):
        db, _, _ = make_store()
        db.put("t", "b", 1)
        db.put("t", "a", 2)
        assert db.keys("t") == ["a", "b"]

    def test_persistence_across_instances(self):
        db, backing, _ = make_store()
        db.put("policies", "p1", "data")
        db.set_version(1)
        db.commit_instant()
        reopened, _, _ = make_store(store=backing)
        assert reopened.get("policies", "p1") == "data"
        assert reopened.version == 1

    def test_encrypted_at_rest(self):
        db, backing, _ = make_store()
        db.put("secrets", "k", b"plaintext-secret-value")
        db.commit_instant()
        assert backing.scan_for(b"plaintext-secret-value") == []

    def test_snapshot_tampering_detected(self):
        db, backing, _ = make_store()
        db.put("t", "k", "v")
        db.commit_instant()
        path = snapshot_path(backing, "t")
        raw = backing.read(path)
        tamper(backing, path, raw[:-1] + bytes([raw[-1] ^ 1]))
        with pytest.raises(IntegrityError):
            make_store(store=backing)

    def test_manifest_tampering_detected(self):
        db, backing, _ = make_store()
        db.put("t", "k", "v")
        db.commit_instant()
        raw = backing.read("/palaemon.db.manifest")
        tamper(backing, "/palaemon.db.manifest",
                       raw[:-1] + bytes([raw[-1] ^ 1]))
        with pytest.raises(IntegrityError):
            make_store(store=backing)

    def test_snapshot_swap_detected(self):
        """A snapshot replayed from an older commit fails the manifest."""
        db, backing, _ = make_store()
        db.put("t", "k", "old")
        db.commit_instant()
        stale = backing.read(snapshot_path(backing, "t"))
        db.put("t", "k", "new")
        db.commit_instant()
        tamper(backing, snapshot_path(backing, "t"), stale)
        with pytest.raises(IntegrityError):
            make_store(store=backing)

    def test_version_cannot_decrease(self):
        db, _, _ = make_store()
        db.set_version(5)
        with pytest.raises(PolicyValidationError):
            db.set_version(4)

    def test_commit_pays_disk_latency(self):
        db, _, sim = make_store()

        def main():
            yield sim.process(db.commit())
            return sim.now

        elapsed = sim.run_process(main())
        assert elapsed == pytest.approx(_COMMIT_LATENCY_SECONDS)


def make_guard(backing=None, sim=None, counters=None, counter_id="c"):
    sim = sim or Simulator()
    counters = counters or PlatformCounterService(sim)
    db, backing, _ = make_store(store=backing, sim=sim)
    guard = RollbackGuard(db, counters, counter_id)
    guard.ensure_counter()
    return guard, db, backing, sim, counters


class TestRollbackProtocol:
    def test_clean_lifecycle(self):
        """startup -> serve -> shutdown -> restart works."""
        guard, db, backing, sim, counters = make_guard()

        def lifecycle():
            yield sim.process(guard.startup())
            assert counters.read("c") == 1
            assert db.version == 0  # database trails the counter
            yield sim.process(guard.shutdown())
            assert db.version == 1  # reconciled
            yield sim.process(guard.startup())
            yield sim.process(guard.shutdown())

        sim.run_process(lifecycle())
        assert db.version == 2

    def test_crash_blocks_restart(self):
        """Crash-as-attack: after a crash, v < c and startup refuses."""
        guard, db, backing, sim, counters = make_guard()

        def run():
            yield sim.process(guard.startup())
            guard.crash()
            yield sim.process(guard.startup())

        with pytest.raises(StaleDatabaseError):
            sim.run_process(run())

    def test_database_rollback_detected(self):
        """Restoring an old DB snapshot is caught at startup (v != c)."""
        guard, db, backing, sim, counters = make_guard()
        old_snapshot = backing.snapshot()

        def run():
            yield sim.process(guard.startup())
            db.put("tags", "app", b"new-tag")
            yield sim.process(guard.shutdown())

        sim.run_process(run())
        backing.restore(old_snapshot)  # attacker rolls the DB back

        guard2, db2, _, sim2, _ = make_guard(backing=backing,
                                             counters=counters, sim=sim)

        def restart():
            yield sim2.process(guard2.startup())

        with pytest.raises(StaleDatabaseError):
            sim2.run_process(restart())

    def test_second_instance_detected(self):
        """Cloning: two instances from the same sealed state cannot both run."""
        sim = Simulator()
        counters = PlatformCounterService(sim)
        backing = BlockStore()
        guard1, db1, _, _, _ = make_guard(backing=backing, sim=sim,
                                          counters=counters)
        # The attacker starts a second instance from a copy of the volume.
        clone_volume = BlockStore()
        clone_volume.restore(backing.snapshot())
        guard2, db2, _, _, _ = make_guard(backing=clone_volume, sim=sim,
                                          counters=counters)

        def run():
            yield sim.process(guard1.startup())   # c: 0 -> 1, ok
            yield sim.process(guard2.startup())   # v=0 but c=1 already

        with pytest.raises(StaleDatabaseError):
            sim.run_process(run())

    def test_concurrent_increment_detected(self):
        """If another instance increments between check and increment, the
        c == v+1 check fires."""
        sim = Simulator()
        counters = PlatformCounterService(sim)
        guard, db, backing, _, _ = make_guard(sim=sim, counters=counters)

        def interloper():
            # Another process increments the counter just after guard reads.
            yield sim.process(counters.increment("c"))

        def run():
            sim.process(interloper())
            yield sim.process(guard.startup())

        with pytest.raises(ConcurrentInstanceError):
            sim.run_process(run())

    def test_counter_rollback_capable_attacker_wins(self):
        """Documented limit: protection is only as strong as the counter.

        An attacker who can roll back the platform's monotonic counter (out
        of scope in the paper's threat model) defeats the protocol — this
        test pins down the boundary.
        """
        guard, db, backing, sim, counters = make_guard()
        old_snapshot = backing.snapshot()

        def run():
            yield sim.process(guard.startup())
            db.put("tags", "app", b"progress")
            yield sim.process(guard.shutdown())

        sim.run_process(run())
        backing.restore(old_snapshot)
        rollback_counter(counters, "c", 0)  # the out-of-scope capability

        guard2, db2, _, sim2, _ = make_guard(backing=backing,
                                             counters=counters, sim=sim)

        def restart():
            yield sim2.process(guard2.startup())

        sim2.run_process(restart())  # no error: the rollback went undetected
        assert db2.get("tags", "app") is None  # stale state served

    def test_shutdown_without_startup_is_noop(self):
        guard, db, backing, sim, _ = make_guard()

        def run():
            yield sim.process(guard.shutdown())

        sim.run_process(run())
        assert db.version == 0

    def test_counter_touched_twice_per_lifecycle(self):
        """The design point: counter wear is per-lifecycle, not per-update."""
        guard, db, backing, sim, counters = make_guard()

        def run():
            yield sim.process(guard.startup())
            for i in range(1000):  # a thousand tag updates...
                db.put("tags", f"app-{i}", b"tag")
            yield sim.process(guard.shutdown())

        sim.run_process(run())
        assert counters.writes("c") == 1  # ...one hardware increment


def test_stray_pre_segment_blob_cannot_reset_state():
    """A volume holding only a whole-document ``/palaemon.db`` blob and no
    manifest opens empty at version 0, and the Fig 6 check refuses it."""
    deployment = Deployment(seed=b"stray-blob")
    deployment.stop_palaemon()  # clean shutdown: v == c == 1
    volume = deployment.volume
    for path in volume.list():
        if path.startswith("/palaemon.db"):
            volume.delete(path)
    tamper(volume, "/palaemon.db", b"\x5a" * 256)
    restarted = PalaemonService(deployment.platform, volume,
                                DeterministicRandom(b"restart"))
    assert restarted.store.version == 0
    with pytest.raises(StaleDatabaseError, match="version 0 != monotonic "
                                                 "counter 1"):
        deployment.simulator.run_process(restarted.start())
    assert not restarted.running
