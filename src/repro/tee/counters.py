"""SGX platform monotonic counters.

The properties that motivate PALAEMON's alternative design (§IV-D, Fig 10):

- Increments are limited to one per ~50 ms, so a caller that must *wait* for
  a fresh increment sees ~75 ms (finish the in-flight increment, then wait a
  full period) and end-to-end throughput lands near 13/s.
- The backing NVRAM wears out after on the order of a million writes.

Counters are otherwise genuinely monotonic and survive "reboots" of the
platform object (state lives in the service, not the enclave).
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from repro import calibration
from repro.errors import (
    CounterError,
    CounterNotFoundError,
    CounterUnavailableError,
    CounterWearError,
)
from repro.sim.core import Event, Simulator


class PlatformCounterService:
    """The platform's monotonic-counter facility.

    Failure taxonomy matters here: an *unknown* counter raises
    :class:`CounterNotFoundError` (permanent — nothing was ever created),
    while an injected outage raises :class:`CounterUnavailableError`
    (transient — the counter still exists and still holds its value).
    Conflating the two is how rollback protection gets silently minted
    away (see ``RollbackGuard.ensure_counter``).
    """

    def __init__(self, simulator: Simulator,
                 increment_interval: float = (
                     calibration.SGX_COUNTER_INCREMENT_INTERVAL_SECONDS),
                 sdk_overhead_seconds: float = 0.027,
                 wear_limit: int = calibration.SGX_COUNTER_WEAR_LIMIT) -> None:
        self.simulator = simulator
        self.increment_interval = increment_interval
        #: Platform-services SDK round trip (AESM IPC + quoting) per call;
        #: pushes the end-to-end rate from the 20/s spec to the measured 13/s.
        self.sdk_overhead_seconds = sdk_overhead_seconds
        self.wear_limit = wear_limit
        self._values: Dict[str, int] = {}
        self._writes: Dict[str, int] = {}
        self._next_allowed: Dict[str, float] = {}
        #: Fault injection (:class:`repro.sim.faults.FaultPlan`), attached
        #: via ``FaultPlan.attach``.
        self.fault_plan = None
        self.fault_name = "platform-counters"

    def _check_available(self) -> None:
        if (self.fault_plan is not None
                and self.fault_plan.injects("counter_outage",
                                             self.fault_name)):
            raise CounterUnavailableError(
                f"counter service {self.fault_name!r} is unreachable "
                f"(injected outage)")

    def create(self, counter_id: str) -> None:
        """Create a counter starting at zero."""
        self._check_available()
        if counter_id in self._values:
            raise CounterError(f"counter {counter_id!r} already exists")
        self._values[counter_id] = 0
        self._writes[counter_id] = 0
        self._next_allowed[counter_id] = 0.0

    def read(self, counter_id: str) -> int:
        """Read the current value (fast; no rate limit)."""
        self._check_available()
        try:
            return self._values[counter_id]
        except KeyError:
            raise CounterNotFoundError(
                f"unknown counter {counter_id!r}") from None

    def increment(self, counter_id: str) -> Generator[Event, Any, int]:
        """Increment; a process that waits out the hardware rate limit."""
        self._check_available()
        if counter_id not in self._values:
            raise CounterNotFoundError(f"unknown counter {counter_id!r}")
        if self._writes[counter_id] >= self.wear_limit:
            raise CounterWearError(
                f"counter {counter_id!r} exceeded its {self.wear_limit}-write "
                f"endurance budget")
        # The increment occupies one full interval, starting no earlier than
        # the end of the previous increment. Back-to-back increments thus
        # sustain 1/interval (20/s at the 50 ms spec); a caller arriving
        # mid-increment waits the ~75 ms worst case the paper describes.
        wait = max(0.0, self._next_allowed[counter_id] - self.simulator.now)
        yield self.simulator.timeout(wait + self.increment_interval
                                     + self.sdk_overhead_seconds)
        self._next_allowed[counter_id] = self.simulator.now
        self._values[counter_id] += 1
        self._writes[counter_id] += 1
        return self._values[counter_id]

    def writes(self, counter_id: str) -> int:
        """Lifetime write count (wear)."""
        try:
            return self._writes[counter_id]
        except KeyError:
            raise CounterNotFoundError(
                f"unknown counter {counter_id!r}") from None

    def rollback_for_test(self, counter_id: str, value: int) -> None:
        """Forcibly set a counter backwards.

        Only attack-simulation tests use this: the paper's threat model says
        applications can be rolled back *unless* the platform counters hold,
        so tests that model a counter-rollback-capable attacker need a lever.
        """
        if counter_id not in self._values:
            raise CounterNotFoundError(f"unknown counter {counter_id!r}")
        self._values[counter_id] = value
