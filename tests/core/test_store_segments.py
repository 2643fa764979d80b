"""Tests for log-structured persistence and group commit.

Companion to ``test_store_rollback.py``: that file covers integrity and
the Fig 6 version protocol; this one covers the write-path mechanics —
what a flush writes (a log record or snapshots), when the log compacts,
that a failed write never breaks the database, and how concurrent
committers coalesce into one disk commit.
"""

import copy
import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.service import _ServiceState
from repro.core.store import _COMMIT_LATENCY_SECONDS, PolicyStore
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.symmetric import SecretBox
from repro.errors import StorageFaultError
from repro.fs.blockstore import BlockStore
from repro.obs.telemetry import Telemetry
from repro.sim.core import Simulator


def make_store(store=None, seed=b"segment-tests", sim=None, telemetry=None):
    sim = sim or Simulator()
    store = store if store is not None else BlockStore()
    rng = DeterministicRandom(seed)
    return PolicyStore(sim, store, rng.fork(b"db-key").bytes(32),
                       rng.fork(b"store"), telemetry=telemetry), store, sim


def make_counted_store(store=None, seed=b"segment-tests"):
    """A store whose telemetry counts its commits (see :func:`commits`)."""
    sim = Simulator()
    telemetry = Telemetry.for_simulator(sim)
    db, store, sim = make_store(store=store, seed=seed, sim=sim,
                                telemetry=telemetry)
    return db, store, sim, telemetry


def commits(telemetry):
    return int(telemetry.metrics.counter("palaemon_db_commits_total").value)


def apply_operations(db, operations, model=None):
    for operation, table, key, value in operations:
        if operation == "put":
            db.put(table, key, value)
            if model is not None:
                model.setdefault(table, {})[key] = value
        else:
            db.delete(table, key)
            if model is not None:
                model.get(table, {}).pop(key, None)


def assert_holds(db, model, tables):
    for table in tables:
        assert db.table(table) == model.get(table, {})
        assert db.keys(table) == sorted(model.get(table, {}))


def paths(backing, prefix):
    return [path for path in backing.list() if path.startswith(prefix)]


#: Random put/delete sequences over a small table/key alphabet, so
#: deletes actually hit existing keys often enough to matter.
OPERATIONS = st.lists(
    st.tuples(st.sampled_from(["put", "delete"]),
              st.sampled_from(["policies", "state", "tags"]),
              st.sampled_from([f"k{i}" for i in range(6)]),
              st.binary(max_size=16)),
    max_size=30)


#: Each table starts with twelve keys of ~40 bytes, so its snapshot
#: outweighs a few log records and flushes append before they compact.
SEED_OPERATIONS = [("put", table, f"k{index}", b"seed-%d" % index * 5)
                   for table in ("policies", "state") for index in range(12)]

#: Long runs of small batches over the seeded tables.
BATCHES = st.lists(
    st.lists(st.tuples(st.sampled_from(["put", "put", "delete"]),
                       st.sampled_from(["policies", "state"]),
                       st.sampled_from([f"k{i}" for i in range(14)]),
                       st.binary(min_size=8, max_size=40)),
             min_size=1, max_size=3),
    min_size=10, max_size=40)


def referenced_blobs(db):
    """Every snapshot and record path the store's manifest names."""
    blobs = [f"/palaemon.db.snap/{table}.{slot}"
             for table, (slot, _hash, _size) in db._snapshots.items()]
    blobs += [f"/palaemon.db.log/{db._epoch % 2}.{index}"
              for index in range(db._log_length)]
    return sorted(blobs)


class TestSegmentedPersistence:
    @settings(max_examples=40, deadline=None)
    @given(OPERATIONS, OPERATIONS)
    def test_round_trips_like_dict_model(self, first, second):
        """A reopened store holds exactly what a plain dict model of the
        applied operations holds, across two flushes."""
        db, backing, _ = make_store(seed=b"rt")
        model = {}
        for operation, table, key, value in first + second:
            if operation == "put":
                model.setdefault(table, {})[key] = value
            else:
                model.get(table, {}).pop(key, None)
        apply_operations(db, first)
        db.commit_instant()
        apply_operations(db, second)
        db.set_version(3)
        db.commit_instant()
        reopened, _, _ = make_store(store=backing, seed=b"rt")
        assert reopened.version == 3
        for table in ("policies", "state", "tags"):
            assert reopened.table(table) == model.get(table, {})
            assert reopened.keys(table) == sorted(model.get(table, {}))

    @settings(max_examples=30, deadline=None)
    @given(BATCHES)
    def test_round_trips_across_compactions(self, batches):
        """Long runs of flushes append to the log and cross the compaction
        boundary; a store reopened at any point — straight after a
        compaction, or at the end — holds what the dict model holds."""
        db, backing, _ = make_store(seed=b"rt-log")
        model = {}
        apply_operations(db, SEED_OPERATIONS, model)
        db.commit_instant()
        for batch in batches:
            apply_operations(db, batch, model)
            epoch = db._epoch
            db.commit_instant()
            if db._epoch != epoch:
                db, _, _ = make_store(store=backing, seed=b"rt-log")
                assert_holds(db, model, ("policies", "state"))
        reopened, _, _ = make_store(store=backing, seed=b"rt-log")
        assert_holds(reopened, model, ("policies", "state"))

    def test_log_stays_within_the_snapshots_it_covers(self):
        """Puts append records until the log would outgrow the snapshots
        of the tables it touches; that flush compacts instead."""
        db, backing, _ = make_store()
        apply_operations(db, SEED_OPERATIONS)
        db.commit_instant()
        snapshot_bytes = sum(len(backing.read(path)) for path in
                             paths(backing, "/palaemon.db.snap/state."))
        epochs = []
        for index in range(60):
            db.put("state", "k1", b"%02d" % index + b"x" * 30)
            db.commit_instant()
            epochs.append(db._epoch)
            log_bytes = sum(len(backing.read(path)) for path in
                            paths(backing, "/palaemon.db.log/"))
            assert log_bytes <= snapshot_bytes
        assert epochs[-1] - epochs[0] >= 2  # compacted more than once
        assert len(set(epochs)) < len(epochs) // 2  # mostly appends
        reopened, _, _ = make_store(store=backing)
        assert reopened.get("state", "k1") == b"59" + b"x" * 30

    def test_snapshots_open_on_first_use(self, monkeypatch):
        """Loading hash-checks every snapshot but decrypts a table only
        when it is first used."""
        db, backing, _ = make_store()
        db.put("policies", "p1", {"name": "p1"})
        db.put("state", "p1", {"flag": True})
        db.commit_instant()
        opened = []
        original = SecretBox.open

        def recording_open(box, sealed, associated_data=b""):
            opened.append(associated_data)
            return original(box, sealed, associated_data)

        monkeypatch.setattr(SecretBox, "open", recording_open)
        reopened, _, _ = make_store(store=backing)
        assert opened == [b"palaemon-db-manifest"]
        assert reopened.get("state", "p1") == {"flag": True}
        assert reopened.keys("state") == ["p1"]
        assert opened[1:] == [b"palaemon-db-snapshot:state"]

    def test_clean_commit_writes_nothing(self):
        db, backing, _ = make_store()
        db.put("tags", "app", b"tag")
        db.commit_instant()
        writes = backing.write_count
        db.commit_instant()
        assert backing.write_count == writes

    def test_only_dirty_keys_logged(self):
        """An update of one key appends one log record and rewrites no
        snapshot, neither its own table's nor a clean one's."""
        db, backing, _ = make_store()
        for index in range(20):
            db.put("tags", f"app-{index}", b"tag-%d" % index)
        db.put("policies", "p1", {"name": "p1"})
        db.commit_instant()
        snapshots = {path: backing.generation(path)
                     for path in paths(backing, "/palaemon.db.snap/")}
        assert sorted(snapshots) == ["/palaemon.db.snap/policies.0",
                                     "/palaemon.db.snap/tags.0"]
        db.put("tags", "app-3", b"tag-v2")
        db.commit_instant()
        assert {path: backing.generation(path)
                for path in snapshots} == snapshots
        [record] = paths(backing, "/palaemon.db.log/")
        assert b"tag-v2" not in backing.read(record)  # sealed
        reopened, _, _ = make_store(store=backing)
        assert reopened.get("tags", "app-3") == b"tag-v2"
        assert reopened.get("policies", "p1") == {"name": "p1"}

    def test_delete_dirties_only_on_removal(self):
        db, backing, _ = make_store()
        db.put("tags", "app", b"tag")
        db.commit_instant()
        writes = backing.write_count
        assert db.delete("tags", "missing") is False
        db.commit_instant()  # no dirty table: nothing rewritten
        assert backing.write_count == writes
        assert db.delete("tags", "app") is True
        db.commit_instant()
        assert backing.write_count > writes

    def test_keys_cache_returns_copies_and_invalidates(self):
        db, _, _ = make_store()
        db.put("t", "b", 1)
        db.put("t", "a", 2)
        first = db.keys("t")
        assert first == ["a", "b"]
        first.append("mutated")  # callers get a copy, not the cache
        assert db.keys("t") == ["a", "b"]
        db.put("t", "c", 3)
        assert db.keys("t") == ["a", "b", "c"]
        db.delete("t", "a")
        assert db.keys("t") == ["b", "c"]

    def test_touch_marks_table_dirty(self):
        db, backing, _ = make_store()
        db.put("state", "p1", {"flag": False})
        db.commit_instant()
        assert paths(backing, "/palaemon.db.snap/") == [
            "/palaemon.db.snap/state.0"]
        db.get("state", "p1")["flag"] = True  # in-place mutation
        db.touch("state")
        db.commit_instant()
        # The whole table is resealed to the other slot; nothing is logged.
        assert paths(backing, "/palaemon.db.snap/") == [
            "/palaemon.db.snap/state.1"]
        assert paths(backing, "/palaemon.db.log/") == []
        reopened, _, _ = make_store(store=backing)
        assert reopened.get("state", "p1") == {"flag": True}


class TestServiceStateEncoding:
    """A service state pickles as its class and a positional triple."""

    STATE = _ServiceState(expected_tag=b"\x5a" * 32, clean_exit=False,
                          executions=7)

    def test_survives_a_restart_with_every_field(self):
        db, backing, _ = make_store()
        db.put("state", "p1", {"svc": copy.deepcopy(self.STATE)})
        db.commit_instant()
        reopened, _, _ = make_store(store=backing)
        restored = reopened.get("state", "p1")["svc"]
        assert (restored.expected_tag, restored.clean_exit,
                restored.executions) == (b"\x5a" * 32, False, 7)

    def test_in_place_tag_write_then_touch_survives_a_restart(self):
        db, backing, _ = make_store()
        db.put("state", "p1", {"svc": _ServiceState()})
        db.commit_instant()
        db.get("state", "p1")["svc"].expected_tag = b"\x11" * 32
        db.touch("state")
        db.commit_instant()
        reopened, _, _ = make_store(store=backing)
        assert reopened.get("state", "p1")["svc"] == _ServiceState(
            expected_tag=b"\x11" * 32)

    def test_pickle_names_no_field(self):
        encoded = pickle.dumps(self.STATE)
        for name in (b"expected_tag", b"clean_exit", b"executions"):
            assert name not in encoded
        assert pickle.loads(encoded) == self.STATE

    def test_has_no_instance_dict(self):
        assert not hasattr(_ServiceState(), "__dict__")

    def test_deepcopy_is_equal_and_separate(self):
        clone = copy.deepcopy(self.STATE)
        assert clone == self.STATE and clone is not self.STATE
        clone.executions += 1
        assert clone != self.STATE


class FailingStore(BlockStore):
    """A block store whose ``fail_at``-th next write raises, once."""

    fail_at = None

    def write(self, path, data):
        if self.fail_at == 0:
            self.fail_at = None
            raise StorageFaultError(f"injected write failure on {path!r}")
        if self.fail_at is not None:
            self.fail_at -= 1
        super().write(path, data)


class TestCrashSafeWrites:
    """A failed block-store write at any point of a flush leaves the
    volume loading exactly the old state and memory holding it too; a
    retry that re-applies the change stores the new."""

    TABLES = ("policies", "state", "tags")

    def old_state(self):
        db, backing, _ = make_store(store=FailingStore(), seed=b"crash")
        model = {}
        apply_operations(db, SEED_OPERATIONS, model)
        db.commit_instant()
        apply_operations(db, [("put", "state", "k2", b"logged")], model)
        db.commit_instant()  # one record in the log
        return db, backing, model

    @pytest.mark.parametrize("flush", ["append", "compaction"])
    def test_every_write_of_a_flush_can_fail(self, flush):
        def mutate(db, model):
            apply_operations(db, [("put", "state", "k3", b"new"),
                                  ("delete", "policies", "k4", b"")],
                             model)
            if flush == "compaction":
                db.touch("state")  # reseals state and policies

        db, backing, model = self.old_state()
        writes = backing.write_count
        mutate(db, {})
        epoch = db._epoch
        db.commit_instant()
        flush_writes = backing.write_count - writes
        assert (db._epoch != epoch) == (flush == "compaction")
        assert flush_writes == (3 if flush == "compaction" else 2)
        for failing in range(flush_writes):
            db, backing, old = self.old_state()
            new = {table: dict(rows) for table, rows in old.items()}
            mutate(db, new)
            backing.fail_at = failing
            with pytest.raises(StorageFaultError):
                db.commit_instant()
            assert_holds(db, old, ("policies", "state"))
            reopened, _, _ = make_store(store=backing, seed=b"crash")
            assert_holds(reopened, old, ("policies", "state"))
            mutate(db, {})  # nothing of the failed batch is left: re-apply
            db.commit_instant()
            reopened, _, _ = make_store(store=backing, seed=b"crash")
            assert_holds(reopened, new, ("policies", "state"))
            # No orphan of the failed attempt stays on the volume.
            assert paths(backing, "/palaemon.db.") == sorted(
                ["/palaemon.db.manifest"] + referenced_blobs(reopened))

    @settings(max_examples=40, deadline=None)
    @given(OPERATIONS, st.booleans(), st.booleans(),
           st.integers(min_value=0, max_value=63),
           st.sampled_from(["commit", "commit_instant"]))
    def test_a_failed_flush_leaves_no_trace(self, operations, compact,
                                            bump, failing, flush):
        """For a random batch, failing write and flush kind: after the
        raise, memory and a reopened store hold the last durable model,
        the next instant commit writes no blob, and re-applying the batch
        stores it once."""
        def apply(db, model=None):
            apply_operations(db, operations, model)
            if compact:
                db.touch("state")
            if bump:
                db.set_version(db.version + 1)

        reference, reference_backing, _ = self.old_state()
        apply(reference)
        writes = reference_backing.write_count
        reference.commit_instant()
        flush_writes = reference_backing.write_count - writes
        assume(flush_writes > 0)
        db, backing, old = self.old_state()
        new = {table: dict(rows) for table, rows in old.items()}
        apply(db, new)
        backing.fail_at = failing % flush_writes
        with pytest.raises(StorageFaultError):
            if flush == "commit":
                db.simulator.run_process(db.commit())
            else:
                db.commit_instant()
        assert_holds(db, old, self.TABLES)
        assert db.version == 0
        reopened, _, _ = make_store(store=backing, seed=b"crash")
        assert_holds(reopened, old, self.TABLES)
        assert reopened.version == 0
        writes = backing.write_count
        db.commit_instant()
        assert backing.write_count == writes
        apply(db)
        db.commit_instant()
        assert backing.write_count - writes == flush_writes
        assert referenced_blobs(db) == referenced_blobs(reference)
        reopened, _, _ = make_store(store=backing, seed=b"crash")
        assert_holds(reopened, new, self.TABLES)
        assert reopened.version == reference.version

    def test_touch_then_bulk_change_is_put_back(self):
        """The fail-over apply's pattern: touch() a table, then replace
        its rows in bulk and put into it; a failed flush puts back the
        durable table, keys changed before the touch included."""
        db, backing, old = self.old_state()
        db.put("state", "k1", b"before the touch")
        db.touch("state")
        rows = db.table("state")
        rows.clear()
        rows.update({"bulk": b"replaced"})
        db.put("state", "k5", b"after the touch")
        db.put("policies", "k0", b"beside it")
        backing.fail_at = 0
        with pytest.raises(StorageFaultError):
            db.commit_instant()
        assert_holds(db, old, ("policies", "state"))
        reopened, _, _ = make_store(store=backing, seed=b"crash")
        assert_holds(reopened, old, ("policies", "state"))


class TestGroupCommit:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=6), OPERATIONS)
    def test_coalesced_matches_serial_on_disk(self, workers, operations):
        """Group-committed mutations leave the same durable state as
        committing each one serially — only the disk-commit count differs."""
        group, group_backing, group_sim, group_telemetry = \
            make_counted_store(seed=b"grp")
        serial, serial_backing, serial_sim, serial_telemetry = \
            make_counted_store(seed=b"grp")
        apply_operations(group, operations)
        apply_operations(serial, operations)

        def committer(index):
            group.put("tags", f"app-{index}", b"tag-%d" % index)
            yield from group.commit()

        def drive():
            yield group_sim.all_of(
                [group_sim.process(committer(i)) for i in range(workers)])

        group_sim.run_process(drive())
        for index in range(workers):
            serial.put("tags", f"app-{index}", b"tag-%d" % index)
            serial_sim.run_process(serial.commit())
        assert commits(group_telemetry) < commits(serial_telemetry)
        reopened_group, _, _ = make_store(store=group_backing, seed=b"grp")
        reopened_serial, _, _ = make_store(store=serial_backing, seed=b"grp")
        for table in ("policies", "state", "tags"):
            assert (reopened_group.table(table)
                    == reopened_serial.table(table))

    def test_concurrent_committers_share_one_disk_commit(self):
        db, _, sim, telemetry = make_counted_store()

        def committer(index):
            db.put("tags", f"app-{index}", b"tag")
            yield from db.commit()

        def drive():
            yield sim.all_of(
                [sim.process(committer(i)) for i in range(5)])

        sim.run_process(drive())
        assert commits(telemetry) == 1
        assert telemetry.metrics.counter(
            "palaemon_db_commits_coalesced_total").value == 4
        batches = [record for record in telemetry.audit_log.records
                   if record.kind == "db.commit"]
        assert len(batches) == 1
        assert batches[0].details["batch"] == 5

    def test_late_mutation_leads_the_next_batch(self):
        """A waiter whose mutation missed the flush pays its own commit."""
        db, backing, sim, telemetry = make_counted_store()

        def early():
            db.put("tags", "a", b"1")
            yield from db.commit()

        def late():
            # Arrive mid-window, after the leader's flush captured "a".
            yield sim.timeout(_COMMIT_LATENCY_SECONDS / 2)
            db.put("tags", "b", b"2")
            yield from db.commit()

        def drive():
            yield sim.all_of([sim.process(early()), sim.process(late())])

        sim.run_process(drive())
        assert commits(telemetry) == 2
        reopened, _, _ = make_store(store=backing)
        assert reopened.get("tags", "a") == b"1"
        assert reopened.get("tags", "b") == b"2"

    def test_commit_failure_propagates_to_every_waiter(self):
        db, backing, sim, telemetry = make_counted_store(store=FailingStore())
        backing.fail_at = 0
        failures = []

        def committer(index):
            db.put("tags", f"app-{index}", b"tag")
            try:
                yield from db.commit()
            except StorageFaultError:
                failures.append(index)

        def drive():
            yield sim.all_of(
                [sim.process(committer(i)) for i in range(3)])

        sim.run_process(drive())
        # Leader and both coalesced waiters all saw the write fail, and
        # none of their writes stayed...
        assert sorted(failures) == [0, 1, 2]
        assert db.table("tags") == {} and backing.list() == []
        # ...and the store is reusable once the volume recovers.
        assert db._commit_waiters == []
        assert db._committer_active is False

        def retry():
            db.put("tags", "app-0", b"tag")
            yield from db.commit()

        sim.run_process(retry())
        assert commits(telemetry) == 1
        assert make_store(store=backing)[0].get("tags", "app-0") == b"tag"

    def test_instant_failure_fails_a_leader_yet_to_flush(self):
        """A committer is queued from the step of its change: an instant
        flush that fails before the leader's flush drops that change, so
        the leader raises instead of committing an empty batch."""
        db, backing, sim, telemetry = make_counted_store(store=FailingStore())
        outcome = []

        def committer():
            db.put("tags", "a", b"1")
            try:
                yield from db.commit()
                outcome.append("ok")
            except StorageFaultError:
                outcome.append("raised")

        def instant():
            backing.fail_at = 0
            with pytest.raises(StorageFaultError):
                db.commit_instant()
            yield sim.timeout(0)

        def drive():
            yield sim.all_of([sim.process(committer()),
                              sim.process(instant())])

        sim.run_process(drive())
        assert outcome == ["raised"]
        assert db.get("tags", "a") is None
        assert commits(telemetry) == 0


class TestCommitLatencyModel:
    def test_sequential_commits_each_pay_the_window(self):
        """Batching must not change the sequential Fig 11 cost model."""
        db, _, sim, telemetry = make_counted_store()

        def run():
            start = sim.now
            for index in range(3):
                db.put("tags", f"app-{index}", b"tag")
                yield from db.commit()
            return sim.now - start

        elapsed = sim.run_process(run())
        assert elapsed == pytest.approx(3 * _COMMIT_LATENCY_SECONDS)
        assert commits(telemetry) == 3
