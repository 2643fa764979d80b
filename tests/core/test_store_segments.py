"""Tests for dirty-segment persistence and group commit.

Companion to ``test_store_rollback.py``: that file covers integrity and
the Fig 6 version protocol; this one covers the write-path mechanics —
which segments get rewritten, and how concurrent committers coalesce
into one disk commit.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.store import PolicyStore
from repro.crypto.primitives import DeterministicRandom
from repro.fs.blockstore import BlockStore
from repro.obs.telemetry import Telemetry
from repro.sim.core import Simulator


def make_store(store=None, seed=b"segment-tests", sim=None, telemetry=None):
    sim = sim or Simulator()
    store = store if store is not None else BlockStore()
    rng = DeterministicRandom(seed)
    return PolicyStore(sim, store, rng.fork(b"db-key").bytes(32),
                       rng.fork(b"store"), telemetry=telemetry), store, sim


def apply_operations(db, operations):
    for operation, table, key, value in operations:
        if operation == "put":
            db.put(table, key, value)
        else:
            db.delete(table, key)


#: Random put/delete sequences over a small table/key alphabet, so
#: deletes actually hit existing keys often enough to matter.
OPERATIONS = st.lists(
    st.tuples(st.sampled_from(["put", "delete"]),
              st.sampled_from(["policies", "state", "tags"]),
              st.sampled_from([f"k{i}" for i in range(6)]),
              st.binary(max_size=16)),
    max_size=30)


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

    def test_clean_commit_writes_nothing(self):
        db, backing, _ = make_store()
        db.put("tags", "app", b"tag")
        db.commit_instant()
        writes = backing.write_count
        db.commit_instant()
        assert backing.write_count == writes

    def test_only_dirty_segments_rewritten(self):
        db, backing, _ = make_store()
        db.put("tags", "app", b"tag")
        db.put("policies", "p1", {"name": "p1"})
        db.commit_instant()
        clean_generation = backing.generation("/palaemon.db.seg/policies")
        dirty_generation = backing.generation("/palaemon.db.seg/tags")
        db.put("tags", "app", b"tag-v2")
        db.commit_instant()
        assert backing.generation("/palaemon.db.seg/tags") > dirty_generation
        assert (backing.generation("/palaemon.db.seg/policies")
                == clean_generation)

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
        db.get("state", "p1")["flag"] = True  # in-place mutation
        db.touch("state")
        db.commit_instant()
        reopened, _, _ = make_store(store=backing)
        assert reopened.get("state", "p1") == {"flag": True}


class TestGroupCommit:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=6), OPERATIONS)
    def test_coalesced_matches_serial_on_disk(self, workers, operations):
        """Group-committed mutations leave the same durable state as
        committing each one serially — only the disk-commit count differs."""
        group, group_backing, group_sim = make_store(seed=b"grp")
        serial, serial_backing, serial_sim = make_store(seed=b"grp")
        apply_operations(group, operations)
        apply_operations(serial, operations)

        def committer(index):
            group.put("tags", f"app-{index}", b"tag-%d" % index)
            yield group_sim.process(group.commit())

        def drive():
            yield group_sim.all_of(
                [group_sim.process(committer(i)) for i in range(workers)])

        group_sim.run_process(drive())
        for index in range(workers):
            serial.put("tags", f"app-{index}", b"tag-%d" % index)
            serial_sim.run_process(serial.commit())
        assert group.disk.commits < serial.disk.commits
        reopened_group, _, _ = make_store(store=group_backing, seed=b"grp")
        reopened_serial, _, _ = make_store(store=serial_backing, seed=b"grp")
        for table in ("policies", "state", "tags"):
            assert (reopened_group.table(table)
                    == reopened_serial.table(table))

    def test_concurrent_committers_share_one_disk_commit(self):
        telemetry_sim = Simulator()
        telemetry = Telemetry.for_simulator(telemetry_sim)
        db, _, sim = make_store(sim=telemetry_sim, telemetry=telemetry)

        def committer(index):
            db.put("tags", f"app-{index}", b"tag")
            yield sim.process(db.commit())

        def drive():
            yield sim.all_of(
                [sim.process(committer(i)) for i in range(5)])

        sim.run_process(drive())
        assert db.disk.commits == 1
        assert telemetry.metrics.counter(
            "palaemon_db_commits_total").value == 1
        assert telemetry.metrics.counter(
            "palaemon_db_commits_coalesced_total").value == 4
        batches = [record for record in telemetry.audit_log.records
                   if record.kind == "db.commit"]
        assert len(batches) == 1
        assert batches[0].details["batch"] == 5

    def test_late_mutation_leads_the_next_batch(self):
        """A waiter whose mutation missed the flush pays its own commit."""
        db, backing, sim = make_store()

        def early():
            db.put("tags", "a", b"1")
            yield sim.process(db.commit())

        def late():
            # Arrive mid-window, after the leader's flush captured "a".
            yield sim.timeout(db.disk.commit_latency / 2)
            db.put("tags", "b", b"2")
            yield sim.process(db.commit())

        def drive():
            yield sim.all_of([sim.process(early()), sim.process(late())])

        sim.run_process(drive())
        assert db.disk.commits == 2
        reopened, _, _ = make_store(store=backing)
        assert reopened.get("tags", "a") == b"1"
        assert reopened.get("tags", "b") == b"2"

    def test_commit_failure_propagates_to_every_waiter(self):
        db, _, sim = make_store()
        failures = []

        def broken_commit():
            raise OSError("disk died")
            yield  # pragma: no cover - makes this a generator

        db.disk.commit = broken_commit

        def committer(index):
            db.put("tags", f"app-{index}", b"tag")
            try:
                yield sim.process(db.commit())
            except OSError:
                failures.append(index)

        def drive():
            yield sim.all_of(
                [sim.process(committer(i)) for i in range(3)])

        sim.run_process(drive())
        # Leader and both coalesced waiters all saw the disk failure...
        assert sorted(failures) == [0, 1, 2]
        # ...and the store is reusable once the disk recovers.
        assert db._commit_waiters == []
        assert db._committer_active is False
        db.disk = type(db.disk)(sim, 0.001, name="recovered")

        def retry():
            yield sim.process(db.commit())

        sim.run_process(retry())
        assert db.disk.commits == 1


class TestCommitLatencyModel:
    def test_sequential_commits_each_pay_the_window(self):
        """Batching must not change the sequential Fig 11 cost model."""
        db, _, sim = make_store()

        def run():
            start = sim.now
            for index in range(3):
                db.put("tags", f"app-{index}", b"tag")
                yield sim.process(db.commit())
            return sim.now - start

        elapsed = sim.run_process(run())
        assert elapsed == pytest.approx(3 * db.disk.commit_latency)
        assert db.disk.commits == 3
