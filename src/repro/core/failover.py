"""Primary/backup fail-over for PALAEMON (the paper's "ongoing work").

The paper's rollback protection (§IV-D) deliberately trades availability
for freshness: a crash leaves the database version behind the monotonic
counter, so the crashed instance can never restart — "for any unscheduled
outage, we expect that we need to perform a fail-over to another PALAEMON
service instance anyhow." This module implements that fail-over path while
preserving the freshness guarantee:

- designating a backup on a different platform (each with its *own*
  monotonic counter — counters never move between machines) enrols it
  with every table of the primary but ``failover``, and the backup
  becomes a mirror; after that, each flush of the primary's store is one
  batch, sent in order over the CA-verified federation session the two
  opened when they peered, and a timed commit completes on its ack;
- the backup applies them to its own sealed store, recording the applied
  position and its designated primary in the same flush, and acks only
  after that flush — so an ack is durable, and no other peer can write;
- on primary failure, an operator *promotes* the backup, which starts
  serving under its own counter with what its store already holds and
  from then on refuses every batch from the old primary;
- a primary that crashed (:meth:`FailoverCoordinator.primary_crashed`)
  cannot serve again: its own counter protocol refuses the restart.

Freshness across fail-over is bounded by the replication acknowledgement:
promotion only exposes state the backup had durably applied. The fence
holds only after a crash. A primary stopped gracefully reconciles its
counter, so it can restart beside a promoted backup, though its writes
no longer reach that backup; the promotion epoch
lives in the coordinator's memory, and no peer drops replies by epoch.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.dispatch import (
    AUTH_PEER,
    DEFAULT_REGISTRY,
    DispatchContext,
    decode_reply,
)
from repro.core.federation import FederatedInstance
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom
from repro.errors import (
    AccessDeniedError,
    BadRequestError,
    PolicyError,
    ReproError,
    RollbackDetectedError,
)
from repro.sim.core import Event
from repro.sim.retry import RetryPolicy


#: The replication link's retry budget: a 0.5 s deadline per attempt.
REPLICATION_RETRY = RetryPolicy(max_attempts=4, base_delay=0.05,
                                attempt_timeout=0.5)

#: The backup's reserved row, ``{"primary": name, "applied_sequence": n}``:
#: the peer it accepts batches from and the last batch it applied. No
#: batch may write its table.
REPLICA_ROW = ("failover", "replica")


class FailoverCoordinator:
    """Manages a primary and one synchronous backup, two peered
    :class:`~repro.core.federation.FederatedInstance` s.

    Batches travel as sealed requests on the primary's peer link, so a
    fault window on that link genuinely prevents the ack while no value
    is readable on the wire. The sender retries under
    :data:`REPLICATION_RETRY` and, on giving up, fails the commits waiting
    for its batches and leaves :meth:`replication_lag` > 0: the batches
    never reached the backup's store, so :meth:`promote_backup` cannot
    expose them. The next flush sends them again.
    """

    def __init__(self, primary: FederatedInstance, backup: FederatedInstance,
                 rng: Optional[DeterministicRandom] = None) -> None:
        if primary.service.platform is backup.service.platform:
            raise PolicyError(
                "backup must run on a different platform (its own counter)")
        if backup.name not in primary.peers():
            raise PolicyError(
                f"{primary.name!r} and {backup.name!r} are not peered")
        self._federation = primary
        self.primary = primary.service
        self.backup = backup.service
        self.simulator = self.primary.simulator
        self.epoch = 1
        self.fenced: List[str] = []
        self._rng = rng or DeterministicRandom(b"failover-retry")
        #: (position, serialized batch) of every shipped batch the backup
        #: has not acknowledged, oldest first.
        self._unacked: List[Tuple[int, bytes]] = []
        #: The running or last round of the sender; it returns ``None``, or
        #: the error it gave up on.
        self._sender: Optional[Event] = None
        store = self.backup.store
        row = store.get(*REPLICA_ROW)
        if row is None or row["primary"] != self.primary.name:
            row = {"primary": self.primary.name, "applied_sequence": 0}
            store.put(*REPLICA_ROW, row)
            store.commit_instant()
        #: The position of the newest shipped batch.
        self.shipped = row["applied_sequence"]
        # The enrolment: every table of either store but ``failover``, so a
        # table only the backup has is emptied.
        source = self.primary.store
        tables = {**dict.fromkeys(store.tables(), {}),
                  **{table: source.table(table) for table in source.tables()}}
        del tables[REPLICA_ROW[0]]
        self.ship(tables, [])
        source.replication = self

    # -- replication -------------------------------------------------------

    def ship(self, tables: Dict[str, Dict[str, Any]],
             operations: List[tuple]) -> None:
        """Queue a batch that replaces ``tables`` whole, then replays the
        put/delete ``operations``. Serialized now, as the store mutates
        values in place."""
        self.shipped += 1
        self._unacked.append((self.shipped, pickle.dumps((tables,
                                                          operations))))
        if self._sender is None or self._sender.triggered:
            self._sender = self.simulator.process(self._send(),
                                                  name="failover-sender")

    def acked(self, position: int) -> Generator[Event, Any, None]:
        """Wait until the backup acks batch ``position``; raises what the
        sender gave up on, such as :class:`RetryExhaustedError`, if it
        gives up first."""
        while self._unacked and self._unacked[0][0] <= position:
            error = yield self._sender
            if error is not None:
                raise error

    def _send(self) -> Generator[Event, Any, Optional[ReproError]]:
        """One round of the sender: every unacked batch, in order, under
        the retry budget. It starts the next round if more were shipped
        meanwhile, or returns the error it gave up on."""
        telemetry = self.primary.telemetry
        started = self.simulator.now
        try:
            ack = yield self.simulator.process(REPLICATION_RETRY.call(
                self.simulator, self._send_unacked, self._rng,
                operation="failover.replicate", telemetry=telemetry))
        except ReproError as exc:  # a give-up, or the backup's refusal
            return exc
        finally:
            telemetry.gauge("palaemon_failover_replication_lag",
                            self.replication_lag())
        acked = sum(position <= ack for position, _ in self._unacked)
        del self._unacked[:acked]
        telemetry.inc("palaemon_failover_replications_total", amount=acked)
        telemetry.observe("palaemon_failover_replication_seconds",
                          self.simulator.now - started)
        if self._unacked:
            self._sender = self.simulator.process(self._send(),
                                                  name="failover-sender")
        return None

    def _send_unacked(self) -> Generator[Event, Any, int]:
        """One attempt: every unacked batch in one sealed request on the
        peer link; the reply is the backup's cumulative ack. A refusal
        from the backup is a verdict, not retried."""
        reply = yield from self._federation.link(self.backup.name).request(
            {"route": "failover.replicate", "batches": list(self._unacked)},
            size_bytes=256 + sum(len(batch) for _, batch in self._unacked))
        return decode_reply(reply)["ack"]

    # -- fail-over -----------------------------------------------------------

    def primary_crashed(self) -> None:
        """The primary dies uncleanly: its counter protocol fences it."""
        self.primary.crash()
        self.fenced.append(self.primary.name)
        self.primary.telemetry.inc("palaemon_failover_fences_total")
        self.primary.telemetry.audit("failover.fence",
                                     instance=self.primary.name,
                                     epoch=self.epoch)

    def promote_backup(self) -> Generator[Event, Any, PalaemonService]:
        """Operator-driven promotion: start the backup, bump the epoch, and
        clear the backup's designated primary, so the route refuses every
        later batch from it — one in flight at the crash included."""
        if self.primary.running:
            raise PolicyError("cannot promote while the primary is serving")
        with self.backup.telemetry.span("failover.promote",
                                        backup=self.backup.name):
            if not self.backup.running:
                yield self.simulator.process(self.backup.start())
            self.backup.store.put(*REPLICA_ROW, {
                "primary": None,
                "applied_sequence": self._applied_sequence()})
            self.backup.store.commit_instant()
            self.epoch += 1
        self.backup.telemetry.inc("palaemon_failover_promotions_total")
        self.backup.telemetry.audit(
            "failover.promote", backup=self.backup.name, epoch=self.epoch,
            applied_sequence=self._applied_sequence())
        return self.backup

    def verify_primary_fenced(self) -> bool:
        """Whether the old primary is fenced: it crashed, and its counter
        protocol refuses its restart (crash-as-attack)."""
        if self.primary.name not in self.fenced:
            return False

        def probe() -> Generator[Event, Any, bool]:
            try:
                yield self.simulator.process(self.primary.start(),
                                             name="fenced-restart-probe")
            except RollbackDetectedError:
                return True
            return False

        return self.simulator.run_process(probe(), name="fence-check")

    def _applied_sequence(self) -> int:
        return self.backup.store.get(*REPLICA_ROW)["applied_sequence"]

    def replication_lag(self) -> int:
        """Batches the primary shipped that the backup has not applied."""
        return self.shipped - self._applied_sequence()


@DEFAULT_REGISTRY.operation(
    "failover.replicate", fields=("batches",), auth=AUTH_PEER,
    serving_required=False, transports=("federation",),
    summary="apply the designated primary's next replication batches in "
            "order; flush, then reply a cumulative ack")
def _failover_replicate_batches(ctx: DispatchContext) -> Any:
    store = ctx.service.store
    row = store.get(*REPLICA_ROW)
    if row is None or row["primary"] != ctx.peer:
        raise AccessDeniedError(
            f"peer {ctx.peer!r} is not the designated primary of "
            f"{ctx.service.name!r}")
    applied = row["applied_sequence"]
    batches = [(position, pickle.loads(batch))
               for position, batch in ctx.request["batches"]
               if position > applied]
    for offset, (position, (tables, operations)) in enumerate(
            batches, start=applied + 1):
        if position != offset or REPLICA_ROW[0] in tables or any(
                operation[0] == REPLICA_ROW[0] for operation in operations):
            raise BadRequestError(
                f"batch {position} is not batch {offset}, or it writes the "
                f"backup's {REPLICA_ROW[0]!r} table")
    for applied, (tables, operations) in batches:
        for table, rows in tables.items():
            store.touch(table)
            store.table(table).clear()
            store.table(table).update(rows)
        for table, key, *value in operations:
            if value:
                store.put(table, key, *value)
            else:
                store.delete(table, key)
    if batches:
        store.put(*REPLICA_ROW, {"primary": ctx.peer,
                                 "applied_sequence": applied})
        store.commit_instant()
    return {"ack": applied}
