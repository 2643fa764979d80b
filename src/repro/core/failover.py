"""Primary/backup fail-over for PALAEMON (the paper's "ongoing work").

The paper's rollback protection (§IV-D) deliberately trades availability
for freshness: a crash leaves the database version behind the monotonic
counter, so the crashed instance can never restart — "for any unscheduled
outage, we expect that we need to perform a fail-over to another PALAEMON
service instance anyhow." This module implements that fail-over path while
preserving the freshness guarantee:

- the primary streams sequenced state updates to a backup instance on a
  different platform (each with its *own* monotonic counter — counters
  never move between machines) over the CA-verified federation session
  the two opened when they peered;
- the backup applies them to its own sealed store, recording the applied
  sequence and its designated primary in the same flush, and acks only
  after that flush — so an ack is durable, and no other peer can write;
- on primary failure, an operator *promotes* the backup, which starts
  serving under its own counter with what its store already holds;
- a primary that crashed (:meth:`FailoverCoordinator.primary_crashed`)
  cannot serve again: its own counter protocol refuses the restart.

Freshness across fail-over is bounded by the replication acknowledgement:
promotion only exposes state the backup had durably applied. The fence
holds only after a crash. A primary stopped gracefully reconciles its
counter, so it can restart beside a promoted backup; the promotion epoch
lives in the coordinator's memory, and no peer drops replies by epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional

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
    RetryExhaustedError,
    RollbackDetectedError,
)
from repro.sim.core import Event, Simulator
from repro.sim.retry import RetryPolicy


#: The replication link's retry budget: a 0.5 s deadline per attempt.
REPLICATION_RETRY = RetryPolicy(max_attempts=4, base_delay=0.05,
                                attempt_timeout=0.5)

#: The backup's reserved row, ``{"primary": name, "applied_sequence": n}``:
#: the peer it accepts batches from and the last update it applied.
REPLICA_ROW = ("failover", "replica")


@dataclass(frozen=True)
class StateUpdate:
    """One sequenced replication record (a tag update, policy write, ...)."""

    sequence: int
    table: str
    key: str
    value: Any


def _refuse_replica_row(table: str, key: str) -> None:
    if (table, key) == REPLICA_ROW:
        raise BadRequestError(
            f"{table}/{key} is the backup's replication row")


class FailoverCoordinator:
    """Manages a primary and one synchronous backup, two peered
    :class:`~repro.core.federation.FederatedInstance` s.

    Updates travel as sealed requests on the primary's peer link, so a
    fault window on that link genuinely prevents the ack while no update
    value is readable on the wire. :meth:`replicate` retries under
    :data:`REPLICATION_RETRY` and, on giving up, leaves
    :meth:`replication_lag` > 0: the update never reached the backup's
    store, so :meth:`promote_backup` cannot expose it.
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
        self.epoch = 1
        self.active: PalaemonService = self.primary
        self.fenced: List[str] = []
        self._rng = rng or DeterministicRandom(b"failover-retry")
        #: Updates the primary committed locally but the backup has not
        #: acknowledged; resent in order on every attempt.
        self._pending: List[StateUpdate] = []
        store = self.backup.store
        row = store.get(*REPLICA_ROW)
        if row is None or row["primary"] != self.primary.name:
            row = {"primary": self.primary.name, "applied_sequence": 0}
            store.put(*REPLICA_ROW, row)
            store.commit_instant()
        self._sequence = row["applied_sequence"]

    @property
    def simulator(self) -> Simulator:
        return self.primary.simulator

    # -- replication -------------------------------------------------------

    def replicate(self, table: str, key: str, value: Any,
                  ) -> Generator[Event, Any, int]:
        """Write through the active instance and synchronously replicate.

        Returns the acknowledged sequence number. Costs one round trip to
        the backup — the price of the availability the paper defers (the
        TLS connection itself is opened once, when the instances peer).
        """
        if self.active is not self.primary:
            raise PolicyError("replicate() is only valid before promotion")
        _refuse_replica_row(table, key)
        self._sequence += 1
        update = StateUpdate(sequence=self._sequence, table=table, key=key,
                             value=value)
        telemetry = self.primary.telemetry
        with telemetry.span("failover.replicate", table=table, key=key):
            started = self.simulator.now
            self.primary.store.put(table, key, value)
            self.primary.store.commit_instant()
            self._pending.append(update)
            try:
                ack = yield self.simulator.process(REPLICATION_RETRY.call(
                    self.simulator, self._send_pending, self._rng,
                    operation="failover.replicate", telemetry=telemetry),
                    name="failover-replicate-retry")
            except RetryExhaustedError:
                # Locally committed but unacknowledged: the lag gauge goes
                # positive and promote_backup() will not expose this update.
                telemetry.gauge("palaemon_failover_replication_lag",
                                self.replication_lag())
                raise
            self._pending = [u for u in self._pending if u.sequence > ack]
            telemetry.observe("palaemon_failover_replication_seconds",
                              self.simulator.now - started)
        telemetry.inc("palaemon_failover_replications_total")
        telemetry.gauge("palaemon_failover_replication_lag",
                        self.replication_lag())
        return update.sequence

    def _send_pending(self) -> Generator[Event, Any, int]:
        """One attempt: every unacked update in one sealed request on the
        peer link; the reply is the backup's cumulative ack. A refusal
        from the backup is a verdict, not retried."""
        reply = yield from self._federation.link(self.backup.name).request(
            {"route": "failover.replicate", "updates": list(self._pending)},
            size_bytes=256 + 128 * len(self._pending))
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
        """Operator-driven promotion: start the backup, bump the epoch."""
        if self.primary.running:
            raise PolicyError("cannot promote while the primary is serving")
        with self.backup.telemetry.span("failover.promote",
                                        backup=self.backup.name):
            if not self.backup.running:
                yield self.simulator.process(self.backup.start())
            self.epoch += 1
            self.active = self.backup
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
        """Updates the primary has that the backup has not acknowledged."""
        return self._sequence - self._applied_sequence()


@DEFAULT_REGISTRY.operation(
    "failover.replicate", fields=("updates",), auth=AUTH_PEER,
    serving_required=False, transports=("federation",),
    summary="apply a replication batch from the designated primary in "
            "order; flush, then reply a cumulative ack")
def _failover_replicate(ctx: DispatchContext) -> Any:
    store = ctx.service.store
    row = store.get(*REPLICA_ROW)
    if row is None or row["primary"] != ctx.peer:
        raise AccessDeniedError(
            f"peer {ctx.peer!r} is not the designated primary of "
            f"{ctx.service.name!r}")
    updates = ctx.request["updates"]
    for update in updates:
        _refuse_replica_row(update.table, update.key)
    applied = row["applied_sequence"]
    for update in updates:
        if update.sequence == applied + 1:
            store.put(update.table, update.key, update.value)
            applied = update.sequence
    if applied != row["applied_sequence"]:
        store.put(*REPLICA_ROW, {"primary": ctx.peer,
                                 "applied_sequence": applied})
        store.commit_instant()
    return {"ack": applied}
