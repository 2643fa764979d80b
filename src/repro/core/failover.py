"""Primary/backup fail-over for PALAEMON (the paper's "ongoing work").

The paper's rollback protection (§IV-D) deliberately trades availability
for freshness: a crash leaves the database version behind the monotonic
counter, so the crashed instance can never restart — "for any unscheduled
outage, we expect that we need to perform a fail-over to another PALAEMON
service instance anyhow." This module implements that fail-over path while
preserving the freshness guarantee:

- the primary streams sequenced state updates to a backup instance on a
  different platform (each with its *own* monotonic counter — counters
  never move between machines);
- on primary failure, an operator *promotes* the backup, which replays to
  the last acknowledged sequence number and starts serving under its own
  counter;
- a fenced (crashed or demoted) primary can never serve again: its own
  counter protocol refuses, and peers drop its epoch.

Freshness across fail-over is bounded by the replication acknowledgement:
promotion only exposes state the backup had durably applied, and the
promotion epoch increments so stale primaries are fenced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional

from repro.core.dispatch import (
    AUTH_PEER,
    DEFAULT_REGISTRY,
    DispatchContext,
    decode_reply,
)
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom
from repro.errors import PolicyError, RetryExhaustedError, RollbackDetectedError
from repro.sim.core import Event, Simulator
from repro.sim.network import Network, Site
from repro.sim.retry import RetryPolicy
from repro.tls.channel import TLSConnection, TLSServer


#: The replication link's retry budget: a 0.5 s deadline per attempt.
REPLICATION_RETRY = RetryPolicy(max_attempts=4, base_delay=0.05,
                                attempt_timeout=0.5)


@dataclass(frozen=True)
class StateUpdate:
    """One sequenced replication record (a tag update, policy write, ...)."""

    sequence: int
    table: str
    key: str
    value: Any


@dataclass
class ReplicaState:
    """The backup's view of the replication stream."""

    applied_sequence: int = 0
    updates: List[StateUpdate] = field(default_factory=list)


class FailoverCoordinator:
    """Manages a primary and one synchronous backup.

    The primary connects from its ``{primary}-repl`` endpoint to a
    :class:`~repro.tls.channel.TLSServer` on ``{backup}-repl``, and
    updates travel as sealed TLS records on ``network`` — so a fault
    window of an attached :class:`~repro.sim.faults.FaultPlan` genuinely
    prevents the ack, while no update value is readable on the wire. The
    backup serves only the session the coordinator opened for the primary.
    :meth:`replicate` retries under :data:`REPLICATION_RETRY` and, on
    giving up, leaves :meth:`replication_lag` > 0 — which
    :meth:`promote_backup` honours by replaying only the updates the
    backup actually acknowledged (bounded-freshness fail-over).
    """

    def __init__(self, primary: PalaemonService, backup: PalaemonService,
                 network: Network,
                 rng: Optional[DeterministicRandom] = None) -> None:
        if primary.platform is backup.platform:
            raise PolicyError(
                "backup must run on a different platform (its own counter)")
        self.primary = primary
        self.backup = backup
        self.epoch = 1
        self._sequence = 0
        self._replica = ReplicaState()
        self.active: PalaemonService = primary
        self.fenced: List[str] = []
        self._rng = rng or DeterministicRandom(b"failover-retry")
        #: Updates the primary committed locally but the backup has not
        #: acknowledged; resent in order on every attempt.
        self._pending: List[StateUpdate] = []
        self._server = TLSServer(
            network, network.endpoint(f"{backup.name}-repl", Site.SAME_DC),
            lambda request, _session: backup.dispatcher.handle(
                request, transport="failover", peer=primary.name,
                target=self))
        self._server.start()
        self._connection = self.simulator.process(
            self._connect(network),
            name=f"repl-connect-{primary.name}")

    @property
    def simulator(self) -> Simulator:
        return self.primary.simulator

    def _connect(self, network: Network,
                 ) -> Generator[Event, Any, TLSConnection]:
        """The primary's TLS connection to the backup's server."""
        connection = yield from TLSConnection.connect(
            network, f"{self.primary.name}-repl", Site.SAME_DC,
            self._server.endpoint, self._rng.fork(b"repl-tls"),
            server_certificate=self.backup.certificate,
            client_certificate=self.primary.certificate,
            client_keys=self.primary.key_pair)
        self._server.register_session(connection.session)
        return connection

    # -- replication -------------------------------------------------------

    def replicate(self, table: str, key: str, value: Any,
                  ) -> Generator[Event, Any, int]:
        """Write through the active instance and synchronously replicate.

        Returns the acknowledged sequence number. Costs one round trip to
        the backup — the price of the availability the paper defers (the
        TLS connection itself is opened once, when the coordinator is
        built).
        """
        if self.active is not self.primary:
            raise PolicyError("replicate() is only valid before promotion")
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
                ack = yield from self._replicate_pending()
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

    def _replicate_pending(self) -> Generator[Event, Any, int]:
        """Send all unacked updates in one sealed request; its reply is
        the backup's cumulative ack. Retried under
        :data:`REPLICATION_RETRY`; a refusal from the backup is a verdict
        and propagates."""
        connection = yield self._connection

        def attempt() -> Generator[Event, Any, int]:
            reply = yield from connection.request(
                {"route": "failover.replicate",
                 "updates": list(self._pending)},
                size_bytes=256 + 128 * len(self._pending))
            return decode_reply(reply)["ack"]

        ack = yield self.simulator.process(REPLICATION_RETRY.call(
            self.simulator, attempt, self._rng,
            operation="failover.replicate",
            telemetry=self.primary.telemetry),
            name="failover-replicate-retry")
        return ack

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
        """Operator-driven promotion: replay, start, bump the epoch."""
        if self.primary.running:
            raise PolicyError("cannot promote while the primary is serving")
        with self.backup.telemetry.span("failover.promote",
                                        backup=self.backup.name):
            for update in self._replica.updates:
                self.backup.store.put(update.table, update.key, update.value)
            self.backup.store.commit_instant()
            if not self.backup.running:
                yield self.simulator.process(self.backup.start())
            self.epoch += 1
            self.active = self.backup
        self.backup.telemetry.inc("palaemon_failover_promotions_total")
        self.backup.telemetry.audit(
            "failover.promote", backup=self.backup.name, epoch=self.epoch,
            replayed=len(self._replica.updates),
            applied_sequence=self._replica.applied_sequence)
        return self.backup

    def verify_primary_fenced(self) -> bool:
        """The old primary can never serve again (crash-as-attack)."""
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

    def replication_lag(self) -> int:
        """Updates the primary has that the backup has not acknowledged."""
        return self._sequence - self._replica.applied_sequence


@DEFAULT_REGISTRY.operation(
    "failover.replicate", fields=("updates",), auth=AUTH_PEER,
    serving_required=False, transports=("failover",),
    summary="apply a replication batch in order; reply a cumulative ack")
def _failover_replicate(ctx: DispatchContext) -> Any:
    replica = ctx.target._replica
    for update in ctx.request["updates"]:
        if update.sequence == replica.applied_sequence + 1:
            replica.updates.append(update)
            replica.applied_sequence = update.sequence
    return {"ack": replica.applied_sequence}
