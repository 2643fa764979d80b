"""A tamper-evident, hash-chained audit log.

PALAEMON's whole point is that no single Byzantine stakeholder can
*silently* do anything: change a policy, roll state back, push an update.
That property is only observable if the security-relevant event stream
itself resists tampering. Each :class:`AuditRecord` therefore carries

    record_hash = SHA-256(previous_hash || canonical(record))

where ``canonical`` is a sorted-key JSON encoding of the record's
sequence number, timestamp, kind, and details. Editing any field breaks
that record's hash; dropping or reordering records breaks the chain link
of the first surviving successor; truncating the tail is detected by
comparing :meth:`AuditLog.head` against an externally anchored head hash
(the same trick the rollback guard plays with the monotonic counter).

The log is in-enclave state: an operator can read it out, but can only
produce a *consistent* forgery by breaking SHA-256 or compromising the
enclave itself — both outside the paper's threat model.

A long-running service audits without end, so the log keeps only the
newest :data:`MAX_AUDIT_RECORDS` records in memory, in a bounded ring. It
remembers how many records it dropped and the hash of the last of them,
so ``len()`` still counts every record, :meth:`AuditLog.head` is
unchanged, and :meth:`AuditLog.verify_chain` walks the retained tail from
that hash.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional

from repro.crypto.primitives import sha256
from repro.errors import IntegrityError

#: The chain anchor for the first record.
GENESIS_HASH = b"\x00" * 32

#: Records a log keeps in memory.
MAX_AUDIT_RECORDS = 1024


def sanitize_details(details: Dict[str, object]) -> Dict[str, object]:
    """Coerce detail values into stable JSON-serializable scalars."""
    clean: Dict[str, object] = {}
    for key, value in details.items():
        if isinstance(value, bytes):
            clean[str(key)] = value.hex()
        elif isinstance(value, (str, int, float, bool)) or value is None:
            clean[str(key)] = value
        else:
            clean[str(key)] = str(value)
    return clean


def record_digest(sequence: int, timestamp: float, kind: str,
                  details: Dict[str, object],
                  previous_hash: bytes) -> bytes:
    """The chained hash of one record's canonical encoding."""
    canonical = json.dumps(
        {"sequence": sequence, "timestamp": timestamp, "kind": kind,
         "details": details},
        sort_keys=True, separators=(",", ":")).encode()
    return sha256(previous_hash, canonical)


@dataclass
class AuditRecord:
    """One security-relevant event, chained to its predecessor."""

    sequence: int
    timestamp: float
    kind: str
    details: Dict[str, object] = field(default_factory=dict)
    previous_hash: bytes = GENESIS_HASH
    record_hash: bytes = b""


class AuditLog:
    """An append-only record chain on an injected (simulator) clock.

    ``records`` is the retained tail in sequence order, at most
    :data:`MAX_AUDIT_RECORDS` long.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.records: Deque[AuditRecord] = deque(maxlen=MAX_AUDIT_RECORDS)
        # The trimmed prefix: how many records went, and the hash of the
        # last of them, which the first retained record chains to.
        self._dropped = 0
        self._base_hash = GENESIS_HASH

    def append(self, kind: str, **details: object) -> AuditRecord:
        """Append one event; returns the chained record."""
        clean = sanitize_details(details)
        sequence = len(self)
        timestamp = self._clock()
        previous = self.head()
        record = AuditRecord(
            sequence=sequence, timestamp=timestamp, kind=kind,
            details=clean, previous_hash=previous,
            record_hash=record_digest(sequence, timestamp, kind, clean,
                                      previous))
        if len(self.records) == MAX_AUDIT_RECORDS:
            # The append pushes the oldest record out of the ring.
            self._base_hash = self.records[0].record_hash
            self._dropped += 1
        self.records.append(record)
        return record

    def head(self) -> bytes:
        """The hash of the newest record (the value to anchor externally)."""
        return (self.records[-1].record_hash if self.records
                else self._base_hash)

    def __len__(self) -> int:
        """Every record ever appended, trimmed ones included."""
        return self._dropped + len(self.records)

    def verify_chain(self, expected_head: Optional[bytes] = None) -> int:
        """Re-derive the chain; raises :class:`IntegrityError` on tampering.

        Returns the number of verified (retained) records. Passing
        ``expected_head`` (an externally anchored copy of :meth:`head`)
        additionally detects truncation of the log tail, which a pure
        chain walk cannot.
        """
        previous = self._base_hash
        for index, record in enumerate(self.records, start=self._dropped):
            if record.sequence != index:
                raise IntegrityError(
                    f"audit record at position {index} carries sequence "
                    f"{record.sequence}: records dropped or reordered")
            if record.previous_hash != previous:
                raise IntegrityError(
                    f"audit record {index} does not chain to its "
                    f"predecessor: records edited, dropped, or reordered")
            expected = record_digest(record.sequence, record.timestamp,
                                     record.kind, record.details,
                                     record.previous_hash)
            if record.record_hash != expected:
                raise IntegrityError(
                    f"audit record {index} ({record.kind!r}) hash mismatch: "
                    f"record contents were edited")
            previous = record.record_hash
        if expected_head is not None and previous != expected_head:
            raise IntegrityError(
                "audit log head does not match the anchored head: "
                "the log tail was truncated or replaced")
        return len(self.records)
