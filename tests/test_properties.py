"""Property-based and stateful tests on core invariants.

- YAML-subset round trip: ``loads(dumps(x)) == x`` for generated documents.
- Shielded file system vs a plain dict model under random operation
  sequences (hypothesis stateful testing), including random sync points.
- The rollback protocol as a state machine: no interleaving of
  start/stop/crash/snapshot/restore operations ever lets a rolled-back
  database serve.
"""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import yamlish
from repro.core.rollback import RollbackGuard
from repro.core.store import PolicyStore
from repro.crypto.primitives import DeterministicRandom
from repro.errors import RollbackDetectedError
from repro.fs.blockstore import BlockStore
from repro.fs.shield import ProtectedFileSystem
from repro.sim.core import Simulator
from repro.tee.counters import PlatformCounterService

# --- yamlish round trip -------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                                   whitelist_characters=" _-./"),
            max_size=20),
)

_keys = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1,
                max_size=12)


def _documents(depth=3):
    if depth == 0:
        return _scalars
    return st.one_of(
        _scalars,
        st.lists(st.one_of(_scalars,
                           st.dictionaries(_keys, _documents(depth - 1),
                                           min_size=1, max_size=3)),
                 max_size=4),
        st.dictionaries(_keys, _documents(depth - 1), min_size=1,
                        max_size=4),
    )


class TestYamlishRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(_keys, _documents(), min_size=1, max_size=5))
    def test_loads_dumps_round_trip(self, document):
        # Top-level documents are mappings, as every PALAEMON policy is.
        try:
            text = yamlish.dumps(document)
        except yamlish.YamlishError:
            return  # documents outside the dumpable subset are fine to skip
        assert yamlish.loads(text) == document

    def test_known_document(self):
        document = {"name": "p", "services": [{"name": "app", "count": 3}],
                    "flag": True, "note": None}
        assert yamlish.loads(yamlish.dumps(document)) == document


# --- shielded FS vs dict model -------------------------------------------


class ShieldedFsMachine(RuleBasedStateMachine):
    """The shield must behave exactly like a dict, plus survive remounts."""

    def __init__(self):
        super().__init__()
        self.store = BlockStore()
        self.rng = DeterministicRandom(b"stateful-fs")
        self.key = self.rng.fork(b"key").bytes(32)
        self.fs = ProtectedFileSystem(self.store, self.key,
                                      self.rng.fork(b"fs"))
        self.model = {}
        self.mounts = 0

    PATHS = ("/a", "/b", "/dir/c", "/dir/d", "/e")
    paths = st.sampled_from(PATHS)

    @rule(path=paths, content=st.binary(max_size=128))
    def write(self, path, content):
        self.fs.write(path, content)
        self.model[path] = content

    @rule(path=paths)
    def read(self, path):
        if path in self.model:
            assert self.fs.read(path) == self.model[path]
        else:
            with pytest.raises(FileNotFoundError):
                self.fs.read(path)

    @rule()
    def sync(self):
        self.fs.sync()

    @rule()
    def remount(self):
        """Persist, drop the in-memory state, mount fresh."""
        self.fs.sync()
        self.fs = ProtectedFileSystem(
            self.store, self.key,
            self.rng.fork(b"remount%d" % self.mounts))
        self.mounts += 1

    @invariant()
    def files_match_model(self):
        for path in self.PATHS:
            assert self.fs.exists(path) == (path in self.model)

    @invariant()
    def no_plaintext_in_store(self):
        for path, content in self.model.items():
            if len(content) >= 8:  # short strings collide by chance
                assert self.store.scan_for(content) == []


TestShieldedFsStateful = ShieldedFsMachine.TestCase
TestShieldedFsStateful.settings = settings(max_examples=30,
                                           stateful_step_count=30,
                                           deadline=None)


# --- rollback protocol state machine ---------------------------------------


class RollbackProtocolMachine(RuleBasedStateMachine):
    """Model: whatever the attacker does with snapshots, a *stale* database
    never serves. The model tracks the data the current store should hold
    if it is fresh; a successful startup must always see fresh data."""

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.counters = PlatformCounterService(self.sim)
        self.backing = BlockStore()
        self.rng_counter = 0
        self.guard = self._make_guard()
        self.running = False
        self.writes = 0
        self.committed_writes = 0
        self.snapshots = []  # (backing snapshot, committed_writes at capture)

    def _make_guard(self):
        self.rng_counter += 1
        rng = DeterministicRandom(b"rb%d" % self.rng_counter)
        store = PolicyStore(self.sim, self.backing,
                            DeterministicRandom(b"db-key").bytes(32), rng)
        guard = RollbackGuard(store, self.counters, "c")
        guard.ensure_counter()
        return guard

    @precondition(lambda self: not self.running)
    @rule()
    def start(self):
        try:
            self.sim.run_process(self.guard.startup())
        except RollbackDetectedError:
            # Startup refused: the store must indeed be stale or crashed.
            assert (self.committed_writes != self.writes
                    or self.guard.store.version != self.counters.read("c"))
            return
        # Startup succeeded: the database must be fresh.
        assert self.guard.store.get("log", "count", 0) == self.committed_writes
        self.running = True

    @precondition(lambda self: self.running)
    @rule()
    def write(self):
        self.writes += 1
        self.guard.store.put("log", "count", self.writes)
        self.guard.store.commit_instant()
        self.committed_writes = self.writes

    @precondition(lambda self: self.running)
    @rule()
    def stop_cleanly(self):
        self.sim.run_process(self.guard.shutdown())
        self.running = False
        self.guard = self._make_guard()

    @precondition(lambda self: self.running)
    @rule()
    def crash(self):
        self.guard.crash()
        self.running = False
        self.guard = self._make_guard()

    @precondition(lambda self: not self.running)
    @rule()
    def attacker_snapshot(self):
        self.snapshots.append((self.backing.snapshot(),
                               self.committed_writes))

    @precondition(lambda self: bool(self.snapshots) and not self.running)
    @rule(index=st.integers(0, 4))
    def attacker_restore(self, index):
        snapshot, snapshot_writes = self.snapshots[index % len(self.snapshots)]
        self.backing.restore(snapshot)
        # The model: the store now holds the old state; if it is genuinely
        # stale (fewer writes than reality), startup must refuse — which
        # start() asserts via committed_writes.
        self.committed_writes = snapshot_writes
        # writes stays: it is the ground truth the attacker wants to hide.
        self.guard = self._make_guard()

    @invariant()
    def stale_never_serves(self):
        if self.running:
            assert self.guard.store.get("log", "count", 0) == self.writes


TestRollbackProtocolStateful = RollbackProtocolMachine.TestCase
TestRollbackProtocolStateful.settings = settings(max_examples=40,
                                                 stateful_step_count=25,
                                                 deadline=None)
