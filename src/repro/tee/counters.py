"""Rate-limited, wearing NVRAM monotonic counters: SGX platform and TPM.

The properties that motivate PALAEMON's alternative design (§IV-D, Fig 10):

- Increments are limited to one per ~50 ms, so a caller that must *wait* for
  a fresh increment sees ~75 ms (finish the in-flight increment, then wait a
  full period) and end-to-end throughput lands near 13/s.
- The backing NVRAM wears out after on the order of a million writes.

A TPM 2.0 counter, the paper's classical alternative, is the same device
with its own write time and endurance (:class:`TPMCounterService`).

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

    #: One increment's NVRAM write: the 50 ms spec interval + SDK round trip.
    increment_seconds = (calibration.SGX_COUNTER_INCREMENT_INTERVAL_SECONDS
                         + calibration.SGX_COUNTER_SDK_OVERHEAD_SECONDS)
    #: Writes a counter survives before its NVRAM wears out.
    wear_limit = calibration.SGX_COUNTER_WEAR_LIMIT
    fault_name = "platform-counters"

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self._values: Dict[str, int] = {}
        self._writes: Dict[str, int] = {}
        self._next_allowed: Dict[str, float] = {}
        #: Fault injection (:class:`repro.sim.faults.FaultPlan`), attached
        #: via ``FaultPlan.attach``.
        self.fault_plan = None

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
        # sustain 1/increment_seconds (13/s on SGX, 10/s on a TPM); a caller
        # arriving mid-increment waits the ~75 ms worst case of the paper.
        wait = max(0.0, self._next_allowed[counter_id] - self.simulator.now)
        yield self.simulator.timeout(wait + self.increment_seconds)
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


class TPMCounterService(PlatformCounterService):
    """TPM 2.0 NVRAM counters: ~10 increments/s, and an endurance the
    paper cites as 300 k to 1.4 M writes, modelled at its low end."""

    increment_seconds = 1.0 / calibration.TPM_COUNTER_RATE
    wear_limit = calibration.TPM_COUNTER_WEAR_LIMIT
    fault_name = "tpm"
