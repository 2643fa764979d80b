"""The rollback-protection protocol of Fig 6, plus single-instance
enforcement (§IV-C/D).

The protocol in full:

1. **Startup** — read the database version ``v`` and the hardware monotonic
   counter ``c``. If ``v != c`` the database is stale (a rollback) or a
   previous instance is still running: **exit**.
2. Increment ``c`` *before accepting any request*, and check the increment
   yields ``c == v + 1``. A larger value means another instance incremented
   concurrently — a cloning attack: **exit**. From here the database trails
   the counter (``v < c``), so a crash leaves the pair mismatched and any
   restart is refused until an operator intervenes (crash-as-attack).
3. **Shutdown** — drain requests, set ``v := c``, commit, exit. Counter and
   version agree again; a clean restart is possible.

The hardware counter is touched exactly twice per instance lifetime, never
per tag update — the design decision that buys 5 orders of magnitude of
tag-update throughput (Fig 10).
"""

from __future__ import annotations

from typing import Any, Generator

from typing import Optional

from repro.core.store import PolicyStore
from repro.errors import (
    ConcurrentInstanceError,
    CounterNotFoundError,
    StaleDatabaseError,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.core import Event
from repro.tee.counters import PlatformCounterService


class RollbackGuard:
    """Binds a :class:`PolicyStore` to a platform monotonic counter.

    Every counter transition (the two touches per instance lifetime, plus
    every refusal) lands in the audit log: a Byzantine operator who rolls
    the database back or clones an instance leaves a chained record of the
    mismatched (v, c) pair they triggered.
    """

    def __init__(self, store: PolicyStore,
                 counters: PlatformCounterService, counter_id: str,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.store = store
        self.counters = counters
        self.counter_id = counter_id
        self.active = False
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def ensure_counter(self) -> None:
        """Create the hardware counter on first installation.

        Only :class:`CounterNotFoundError` means "never installed". A
        transient outage (:class:`~repro.errors.CounterUnavailableError`)
        must propagate: minting a *fresh* counter while the real one is
        unreachable would silently discard the rollback protection the
        counter exists to provide — the old ``except Exception`` here did
        exactly that.
        """
        try:
            self.counters.read(self.counter_id)
        except CounterNotFoundError:
            self.counters.create(self.counter_id)

    def startup(self) -> Generator[Event, Any, int]:
        """Steps 1-2 of the protocol; returns the incremented counter.

        Raises on rollback or cloning. The returned value is never handed
        out twice for this database: a crash leaves ``v < c`` and blocks
        every later startup.
        """
        with self.telemetry.span("guard.startup", counter=self.counter_id):
            counter_value = self.counters.read(self.counter_id)
            version = self.store.version
            if version != counter_value:
                self._refuse("stale_database", version, counter_value)
                raise StaleDatabaseError(
                    f"database version {version} != monotonic counter "
                    f"{counter_value}: rollback or unclean shutdown detected")
            new_value = yield self.store.simulator.process(
                self.counters.increment(self.counter_id))
            self._record_increment(counter_value, new_value)
            if new_value != version + 1:
                self._refuse("concurrent_instance", version, new_value)
                raise ConcurrentInstanceError(
                    f"counter jumped to {new_value}, expected {version + 1}: "
                    f"another instance is running")
            self.active = True
        self.telemetry.audit("guard.startup", counter=self.counter_id,
                             version=version, counter_value=new_value)
        return new_value

    def shutdown(self) -> Generator[Event, Any, None]:
        """Step 3: reconcile the version with the counter and commit."""
        if not self.active:
            return
        with self.telemetry.span("guard.shutdown", counter=self.counter_id):
            counter_value = self.counters.read(self.counter_id)
            self.store.set_version(counter_value)
            yield from self.store.commit()
            self.active = False
        self.telemetry.audit("guard.shutdown", counter=self.counter_id,
                             version=counter_value,
                             counter_value=counter_value)

    def crash(self) -> None:
        """Model a crash: the version update never happens.

        After a crash, ``v < c`` permanently, so :meth:`startup` refuses to
        run — consistency and freshness are preserved at the price of
        availability (the paper's crash-as-attack stance, §IV-D).
        """
        self.active = False
        self.telemetry.audit("guard.crash", counter=self.counter_id,
                             version=self.store.version,
                             counter_value=self.counters.read(self.counter_id))

    # -- telemetry helpers -------------------------------------------------

    def _record_increment(self, old_value: int, new_value: int) -> None:
        self.telemetry.inc("palaemon_counter_increments_total")
        self.telemetry.gauge("palaemon_counter_value", new_value,
                             counter=self.counter_id)
        self.telemetry.audit("counter.increment", counter=self.counter_id,
                             old_value=old_value, new_value=new_value)

    def _refuse(self, reason: str, version: int, counter_value: int) -> None:
        self.telemetry.inc("palaemon_rollback_refusals_total", reason=reason)
        self.telemetry.audit("guard.refused", counter=self.counter_id,
                             reason=reason, version=version,
                             counter_value=counter_value)
