"""PALAEMON's encrypted policy database.

The paper embeds an encrypted SQLite inside the PALAEMON enclave (§IV); here
the database is an encrypted, integrity-protected key/value store persisted
to an untrusted block store. Everything PALAEMON must remember lives in it:
policies, materialized secrets, expected file-system tags, per-service
clean-exit flags — and the **version number** ``v`` that pairs with the
hardware monotonic counter ``c`` in the rollback protocol (Fig 6).

Reads are served from enclave memory; *updates* commit to disk, which is why
tag updates cost ~6x tag reads (Fig 11 left). To keep that commit cheap the
database is persisted as **dirty-table segments**: each table seals to its
own blob under the DB key, and a sealed manifest binds every segment hash to
the database version. A tag update therefore re-encrypts only the tags
table, not the whole document. A volume without a manifest opens as an
empty database at version 0, which the Fig 6 check refuses once the
counter is ahead.

``commit()`` adds **group-commit batching**: concurrent committers inside
one disk-commit window coalesce into a single :meth:`DiskModel.commit`,
with one leader flushing the dirty segments and waiters sharing its
completion event (the classic write-ahead-log group commit).
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro import calibration
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.symmetric import SecretBox
from repro.errors import IntegrityError, PolicyValidationError
from repro.fs.blockstore import BlockStore
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.core import Event, Simulator
from repro.sim.resources import DiskModel

_MANIFEST_PATH = "/palaemon.db.manifest"
_SEGMENT_PREFIX = "/palaemon.db.seg/"

_MISSING = object()

#: Disk commit latency calibrated against Fig 11: a tag update (commit
#: included) takes ~27 ms vs ~4.5 ms for a read.
_COMMIT_LATENCY_SECONDS = (calibration.TAG_UPDATE_LATENCY_SECONDS
                           - calibration.TAG_READ_LATENCY_SECONDS)


def _segment_path(table: str) -> str:
    return _SEGMENT_PREFIX + table


def _segment_ad(table: str) -> bytes:
    # Bind each segment to its table name so blobs cannot be swapped
    # between tables by the untrusted store.
    return b"palaemon-db-segment:" + table.encode()


class PolicyStore:
    """An encrypted, segment-persisted database with an explicit version."""

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
        # Dirty tracking: which tables (and whether the version) changed
        # since the last flush; only those are re-sealed and rewritten.
        self._dirty_tables: Set[str] = set()
        self._meta_dirty = False
        self._segment_hashes: Dict[str, bytes] = {}
        self._keys_cache: Dict[str, List[str]] = {}
        # Group commit: a monotonically increasing mutation ticket, the
        # active-leader flag, and the queue of (ticket, event) waiters.
        self._mutations = 0
        self._committer_active = False
        self._commit_waiters: List[Tuple[int, Event]] = []
        if store.exists(_MANIFEST_PATH):
            self._load()

    # -- persistence -----------------------------------------------------

    def _load(self) -> None:
        sealed = self.store.read(_MANIFEST_PATH)
        try:
            payload = self._box.open(sealed,
                                     associated_data=b"palaemon-db-manifest")
        except IntegrityError:
            raise IntegrityError(
                "policy database manifest failed integrity "
                "verification") from None
        manifest = pickle.loads(payload)
        tables: Dict[str, Any] = {}
        hashes: Dict[str, bytes] = {}
        for table, expected_hash in sorted(manifest["segments"].items()):
            blob = self.store.read(_segment_path(table))
            if sha256(blob) != expected_hash:
                # A swapped or stale segment: its hash no longer matches
                # what the sealed manifest committed to.
                raise IntegrityError(
                    f"policy database segment {table!r} does not match "
                    f"the sealed manifest")
            try:
                segment = self._box.open(
                    blob, associated_data=_segment_ad(table))
            except IntegrityError:
                raise IntegrityError(
                    f"policy database segment {table!r} failed integrity "
                    f"verification") from None
            tables[table] = pickle.loads(segment)
            hashes[table] = expected_hash
        self._data = {"version": manifest["version"], "tables": tables}
        self._segment_hashes = hashes

    def _flush(self) -> None:
        """Reseal and rewrite only the dirty segments plus the manifest."""
        if not self._dirty_tables and not self._meta_dirty:
            return
        bytes_written = 0
        for table in sorted(self._dirty_tables):
            payload = pickle.dumps(self._data["tables"][table])
            blob = self._box.seal(payload,
                                  associated_data=_segment_ad(table))
            self.store.write(_segment_path(table), blob)
            self._segment_hashes[table] = sha256(blob)
            bytes_written += len(blob)
        manifest_payload = pickle.dumps({
            "version": self._data["version"],
            "segments": dict(sorted(self._segment_hashes.items())),
        })
        manifest_blob = self._box.seal(
            manifest_payload, associated_data=b"palaemon-db-manifest")
        self.store.write(_MANIFEST_PATH, manifest_blob)
        bytes_written += len(manifest_blob)
        self._dirty_tables.clear()
        self._meta_dirty = False
        self.telemetry.inc("palaemon_db_segment_bytes_written",
                           amount=bytes_written)

    def commit(self) -> Generator[Event, Any, None]:
        """Durably persist the database (simulated disk latency).

        Group commit: the first caller becomes the *leader* — it flushes
        the dirty segments and pays one :meth:`DiskModel.commit`. Callers
        arriving while a commit is in flight enqueue as *waiters*; any
        waiter whose mutations were captured by the leader's flush shares
        the leader's completion, so N concurrent tag updates coalesce into
        a single disk commit. A waiter whose mutations arrived after the
        flush is promoted to lead the next batch. If the disk commit
        fails, every queued waiter fails with the same error — none of
        their mutations became durable.
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
                yield self.simulator.process(self.disk.commit())
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
        """Persist without simulating latency (functional paths)."""
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
        """A named table (a dict); created on first use."""
        return self._data["tables"].setdefault(name, {})

    def put(self, table: str, key: str, value: Any) -> None:
        self.table(table)[key] = value
        self._mark_dirty(table)

    def get(self, table: str, key: str, default: Any = None) -> Any:
        return self.table(table).get(key, default)

    def delete(self, table: str, key: str) -> bool:
        """Remove ``key``; returns whether it existed.

        Only an actual removal dirties the table — deleting a missing key
        must not force a segment rewrite on the next flush.
        """
        removed = self.table(table).pop(key, _MISSING) is not _MISSING
        if removed:
            self._mark_dirty(table)
        return removed

    def touch(self, table: str) -> None:
        """Mark ``table`` dirty after an in-place mutation of a value.

        ``put``/``delete`` track dirtiness themselves, but callers that
        mutate a stored object directly (e.g. flipping a state flag) must
        call this so the segment is rewritten on the next flush.
        """
        self.table(table)
        self._mark_dirty(table)

    def keys(self, table: str) -> list:
        cached = self._keys_cache.get(table)
        if cached is None:
            cached = sorted(self.table(table))
            self._keys_cache[table] = cached
        return list(cached)

    def __contains__(self, table_key: tuple) -> bool:
        table, key = table_key
        return key in self.table(table)

    def _mark_dirty(self, table: str) -> None:
        self._dirty_tables.add(table)
        self._keys_cache.pop(table, None)
        self._mutations += 1
