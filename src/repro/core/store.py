"""PALAEMON's encrypted policy database.

The paper embeds an encrypted SQLite inside the PALAEMON enclave (§IV); here
the database is an encrypted, integrity-protected key/value store persisted
to an untrusted block store. Everything PALAEMON must remember lives in it:
policies, materialized secrets, expected file-system tags, per-service
clean-exit flags — and the **version number** ``v`` that pairs with the
hardware monotonic counter ``c`` in the rollback protocol (Fig 6).

Reads are served from enclave memory; *updates* commit to disk, which is why
tag updates cost ~6x tag reads (Fig 11 left). Like SQLite's write-ahead log,
the database is **log-structured** so that a commit writes what changed,
not the tables it changed:

- each table seals to a *snapshot* blob;
- each flush appends one sealed *record* holding that batch's put and
  delete operations, its associated data binding its log position — a tag
  update writes one small record whatever the number of policies;
- a sealed *manifest* binds the version, every snapshot hash, the log
  length and a hash chain over the record blobs. Loading checks every
  snapshot's hash, replays the records and re-derives the chain, so a
  swapped, truncated, reordered or replayed record raises
  :class:`IntegrityError`. A snapshot the hash has pinned is decrypted on
  the first use of its table, so a restart opens only what it serves.

Compaction has no knob: a flush whose record would push the log's sealed
bytes past the sealed bytes of the snapshots of the tables the log touches
reseals those tables instead and starts an empty log. The log, its replay
and the amortized write therefore stay bounded by the snapshot size, and a
bulk load writes snapshots directly. ``touch(table)`` forces a snapshot of
that table at the next flush.

Writes are crash-safe: records and snapshots go to fresh paths, the
manifest is written last, and superseded blobs are deleted only after it,
so a failure at any write leaves the old state loadable. A volume without
a manifest opens as an empty database at version 0, which the Fig 6 check
refuses once the counter is ahead.

``commit()`` adds **group-commit batching**: concurrent committers inside
one disk-commit window coalesce into a single :meth:`DiskModel.commit`,
with one leader flushing the batch and waiters sharing its completion
event (the classic write-ahead-log group commit).

On a primary with a designated backup, each flush that changes a table
ships its put/delete operations and every ``touch()``ed table whole to
the :class:`~repro.core.failover.FailoverCoordinator` in
``replication``, and ``commit()`` completes on the backup's ack. The
version never ships: each instance pairs its own with its own counter.
"""

from __future__ import annotations

import pickle
from typing import (TYPE_CHECKING, Any, Dict, Generator, List, Optional,
                    Set, Tuple)

from repro import calibration
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.symmetric import NONCE_SIZE, TAG_SIZE, SecretBox
from repro.errors import (IntegrityError, PolicyValidationError,
                          StorageFaultError)
from repro.fs.blockstore import BlockStore
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.core import Event, Simulator
from repro.sim.resources import DiskModel

if TYPE_CHECKING:
    from repro.core.failover import FailoverCoordinator

_MANIFEST_PATH = "/palaemon.db.manifest"
_MANIFEST_AD = b"palaemon-db-manifest"
_SNAPSHOT_PREFIX = "/palaemon.db.snap/"
_LOG_PREFIX = "/palaemon.db.log/"
_LOG_GENESIS = b"\x00" * 32

#: Sealing adds a nonce and a tag to the plaintext.
_SEAL_OVERHEAD = NONCE_SIZE + TAG_SIZE

_MISSING = object()

#: Disk commit latency calibrated against Fig 11: a tag update (commit
#: included) takes ~27 ms vs ~4.5 ms for a read.
_COMMIT_LATENCY_SECONDS = (calibration.TAG_UPDATE_LATENCY_SECONDS
                           - calibration.TAG_READ_LATENCY_SECONDS)


def _snapshot_path(table: str, slot: int) -> str:
    return f"{_SNAPSHOT_PREFIX}{table}.{slot}"


def _snapshot_ad(table: str) -> bytes:
    # Bind each snapshot to its table name so blobs cannot be swapped
    # between tables by the untrusted store.
    return b"palaemon-db-snapshot:" + table.encode()


def _record_path(epoch: int, index: int) -> str:
    # Successive epochs alternate between two sets of paths, so the
    # volume's path set stays bounded; the associated data binds the
    # whole epoch.
    return f"{_LOG_PREFIX}{epoch % 2}.{index}"


def _record_ad(epoch: int, index: int) -> bytes:
    return b"palaemon-db-log:%d:%d" % (epoch, index)


class PolicyStore:
    """An encrypted, log-structured database with an explicit version."""

    def __init__(self, simulator: Simulator, store: BlockStore,
                 db_key: bytes, rng: DeterministicRandom,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.simulator = simulator
        self.store = store
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._box = SecretBox(db_key, rng.fork(b"db-nonces"))
        self.disk = DiskModel(simulator, _COMMIT_LATENCY_SECONDS,
                              name="palaemon-db-disk")
        self._data: Dict[str, Any] = {"version": 0, "tables": {}}
        # Changes since the last flush: keys to log (insertion-ordered, so
        # records are deterministic), tables to snapshot whole, and whether
        # the version moved.
        self._dirty_keys: Dict[Tuple[str, str], None] = {}
        self._dirty_tables: Set[str] = set()
        self._meta_dirty = False
        # What the durable manifest binds: each table's snapshot as
        # (slot, hash, sealed size), and the log of the current epoch. A
        # snapshot alternates between two slots, so a new one never
        # overwrites the durable one.
        self._snapshots: Dict[str, Tuple[int, bytes, int]] = {}
        # Loaded snapshot blobs not yet decrypted: the manifest's hash
        # already pinned each one, so a table is opened on first use.
        self._unopened: Dict[str, bytes] = {}
        self._epoch = 0
        self._log_length = 0
        self._log_head = _LOG_GENESIS
        self._log_bytes = 0
        self._log_tables: Set[str] = set()
        self._keys_cache: Dict[str, List[str]] = {}
        # Group commit: a monotonically increasing mutation ticket, the
        # active-leader flag, and the queue of (ticket, event) waiters.
        self._mutations = 0
        self._committer_active = False
        self._commit_waiters: List[Tuple[int, Event]] = []
        #: The coordinator each flush ships to, on a primary with a backup.
        self.replication: Optional["FailoverCoordinator"] = None
        if store.exists(_MANIFEST_PATH):
            self._load()

    # -- persistence -----------------------------------------------------

    def _read(self, path: str, what: str) -> bytes:
        try:
            return self.store.read(path)
        except FileNotFoundError:
            raise IntegrityError(
                f"policy database {what} is missing from the "
                f"volume") from None

    def _open(self, blob: bytes, associated_data: bytes, what: str) -> Any:
        try:
            payload = self._box.open(blob, associated_data=associated_data)
        except IntegrityError:
            raise IntegrityError(
                f"policy database {what} failed integrity "
                f"verification") from None
        return pickle.loads(payload)

    def _load(self) -> None:
        version, epoch, length, head, snapshots = self._open(
            self._read(_MANIFEST_PATH, "manifest"), _MANIFEST_AD, "manifest")
        self._data["version"] = version
        for table, (slot, digest) in snapshots.items():
            what = f"snapshot {table!r}"
            blob = self._read(_snapshot_path(table, slot), what)
            if sha256(blob) != digest:
                # A swapped or stale snapshot: its hash no longer matches
                # what the sealed manifest committed to.
                raise IntegrityError(
                    f"policy database {what} does not match the sealed "
                    f"manifest")
            self._unopened[table] = blob
            self._snapshots[table] = (slot, digest, len(blob))
        chain = _LOG_GENESIS
        for index in range(length):
            what = f"log record {epoch}.{index}"
            blob = self._read(_record_path(epoch, index), what)
            chain = sha256(chain, blob)
            # Each operation is a (table, key, value) put or a (table, key)
            # delete.
            for operation in self._open(blob, _record_ad(epoch, index), what):
                rows = self.table(operation[0])
                if len(operation) == 3:
                    rows[operation[1]] = operation[2]
                else:
                    rows.pop(operation[1], None)
                self._log_tables.add(operation[0])
            self._log_bytes += len(blob)
        if chain != head:
            raise IntegrityError(
                "policy database log does not match the sealed manifest: "
                "a record was swapped, reordered, truncated or replayed")
        self._epoch, self._log_length, self._log_head = epoch, length, head

    def _flush(self) -> None:
        """Append one log record (or compact), then rewrite the manifest."""
        if not (self._dirty_keys or self._dirty_tables or self._meta_dirty):
            return
        tables = self._data["tables"]
        operations = []
        for table, key in self._dirty_keys:
            if table not in self._dirty_tables:
                value = tables[table].get(key, _MISSING)
                operations.append((table, key) if value is _MISSING
                                  else (table, key, value))
        log_tables = self._log_tables | {operation[0]
                                         for operation in operations}
        epoch, length, head = self._epoch, self._log_length, self._log_head
        log_bytes = self._log_bytes
        record = None
        if operations and not self._dirty_tables:
            room = sum(self._snapshots[table][2] for table in log_tables
                       if table in self._snapshots)
            room -= log_bytes + _SEAL_OVERHEAD
            if room > 0:
                record = pickle.dumps(operations)
                if len(record) > room:
                    record = None  # the compaction's snapshots hold it
        snapshots = dict(self._snapshots)
        writes: List[Tuple[str, bytes]] = []
        superseded: List[str] = []
        if record is not None:
            blob = self._box.seal(
                record, associated_data=_record_ad(epoch, length))
            writes.append((_record_path(epoch, length), blob))
            head = sha256(head, blob)
            length += 1
            log_bytes += len(blob)
        elif operations or self._dirty_tables:
            # Compact: reseal every table the log (or this batch) touches
            # and start an empty log in a fresh epoch.
            superseded = [_record_path(epoch, index)
                          for index in range(length)]
            epoch += 1
            for table in sorted(log_tables | self._dirty_tables):
                blob = self._box.seal(
                    pickle.dumps(self.table(table)),
                    associated_data=_snapshot_ad(table))
                slot = 0
                if table in snapshots:
                    slot = 1 - snapshots[table][0]
                    superseded.append(_snapshot_path(table, 1 - slot))
                snapshots[table] = (slot, sha256(blob), len(blob))
                writes.append((_snapshot_path(table, slot), blob))
            length, head, log_bytes, log_tables = 0, _LOG_GENESIS, 0, set()
        manifest = pickle.dumps((
            self._data["version"], epoch, length, head,
            {table: (slot, digest) for table, (slot, digest, _size)
             in sorted(snapshots.items())}))
        writes.append((_MANIFEST_PATH, self._box.seal(
            manifest, associated_data=_MANIFEST_AD)))
        written: List[str] = []
        try:
            for path, blob in writes:
                self.store.write(path, blob)
                written.append(path)
        except StorageFaultError:
            # The manifest on the volume still names only the old blobs.
            for path in written:
                self.store.delete(path)
            raise
        for path in superseded:
            if self.store.exists(path):
                self.store.delete(path)
        if self.replication is not None and (operations or self._dirty_tables):
            self.replication.ship({
                table: self.table(table)
                for table in sorted(self._dirty_tables)}, operations)
        self._snapshots = snapshots
        self._epoch, self._log_length, self._log_head = epoch, length, head
        self._log_bytes, self._log_tables = log_bytes, log_tables
        self._dirty_keys.clear()
        self._dirty_tables.clear()
        self._meta_dirty = False
        self.telemetry.inc("palaemon_db_segment_bytes_written",
                           amount=sum(len(blob) for _path, blob in writes))

    def commit(self) -> Generator[Event, Any, None]:
        """Durably persist the database (simulated disk latency).

        Group commit: the first caller becomes the *leader* — it flushes
        the batch and pays one :meth:`DiskModel.commit`. Callers
        arriving while a commit is in flight enqueue as *waiters*; any
        waiter whose mutations were captured by the leader's flush shares
        the leader's completion, so N concurrent tag updates coalesce into
        a single disk commit. A waiter whose mutations arrived after the
        flush is promoted to lead the next batch. If the disk commit
        fails, every queued waiter fails with the same error — none of
        their mutations became durable. A leader also waits until the backup
        acks every batch shipped up to its flush, its own and any an
        instant commit shipped for a waiter; a replication give-up fails
        the same way.
        """
        while True:
            if self._committer_active:
                ticket = self._mutations
                gate = self.simulator.event()
                self._commit_waiters.append((ticket, gate))
                role = yield gate
                if role == "durable":
                    return
                continue  # promoted: lead the next batch
            self._committer_active = True
            try:
                self._flush()
                flushed_at = self._mutations
                # Every batch shipped so far, not only this flush's: an
                # instant commit may have shipped a queued committer's rows.
                replication = self.replication
                shipped = replication.shipped if replication else 0
                yield self.simulator.process(self.disk.commit())
                if replication is not None:
                    yield from replication.acked(shipped)
            except BaseException as exc:
                self._committer_active = False
                waiters, self._commit_waiters = self._commit_waiters, []
                for _ticket, gate in waiters:
                    gate.fail(exc)
                raise
            self._committer_active = False
            self.telemetry.inc("palaemon_db_commits_total")
            durable = [gate for ticket, gate in self._commit_waiters
                       if ticket <= flushed_at]
            pending = [(ticket, gate) for ticket, gate in self._commit_waiters
                       if ticket > flushed_at]
            self._commit_waiters = pending
            if durable:
                self.telemetry.inc("palaemon_db_commits_coalesced_total",
                                   amount=len(durable))
                self.telemetry.audit("db.commit",
                                     batch=1 + len(durable),
                                     coalesced=len(durable))
            for gate in durable:
                gate.succeed("durable")
            if pending:
                _ticket, gate = pending.pop(0)
                gate.succeed("lead")
            return

    def commit_instant(self) -> None:
        """Persist without simulating latency (or waiting for a backup)."""
        self._flush()

    # -- version (rollback protocol) -----------------------------------------

    @property
    def version(self) -> int:
        return self._data["version"]

    def set_version(self, version: int) -> None:
        if version < self._data["version"]:
            # A typed error, not a bare ValueError: callers routing errors
            # over the REST layer map exception classes to stable codes,
            # and a decreasing version is a policy-integrity refusal.
            raise PolicyValidationError(
                f"database version must not decrease "
                f"({version} < {self._data['version']})")
        self._data["version"] = version
        self._meta_dirty = True
        self._mutations += 1

    # -- tables ------------------------------------------------------------

    def table(self, name: str) -> Dict[str, Any]:
        """A named table (a dict); opened or created on first use."""
        tables = self._data["tables"]
        if name not in tables:
            blob = self._unopened.pop(name, None)
            tables[name] = {} if blob is None else self._open(
                blob, _snapshot_ad(name), f"snapshot {name!r}")
        return tables[name]

    def put(self, table: str, key: str, value: Any) -> None:
        """Set ``key``; also the way to log an in-place mutated value."""
        self.table(table)[key] = value
        self._mark_dirty(table, key)

    def get(self, table: str, key: str, default: Any = None) -> Any:
        return self.table(table).get(key, default)

    def delete(self, table: str, key: str) -> bool:
        """Remove ``key``; returns whether it existed.

        Only an actual removal is logged — deleting a missing key must not
        force a write on the next flush.
        """
        removed = self.table(table).pop(key, _MISSING) is not _MISSING
        if removed:
            self._mark_dirty(table, key)
        return removed

    def touch(self, table: str) -> None:
        """Snapshot the whole of ``table`` at the next flush.

        For bulk in-place mutation of many values; a single changed value
        is cheaper to log with :meth:`put`.
        """
        self.table(table)
        self._mark_dirty(table)

    def tables(self) -> List[str]:
        """Every table's name, opened or not."""
        return sorted(set(self._data["tables"]) | set(self._unopened))

    def keys(self, table: str) -> list:
        cached = self._keys_cache.get(table)
        if cached is None:
            cached = sorted(self.table(table))
            self._keys_cache[table] = cached
        return list(cached)

    def __contains__(self, table_key: tuple) -> bool:
        table, key = table_key
        return key in self.table(table)

    def _mark_dirty(self, table: str, key: Optional[str] = None) -> None:
        if key is None:
            self._dirty_tables.add(table)
        else:
            self._dirty_keys[(table, key)] = None
        self._keys_cache.pop(table, None)
        self._mutations += 1
