"""TPM 2.0 NVRAM monotonic counters.

The paper cites TPM counters as the classical alternative: ~10 increments
per second and NVRAM endurance between 300 k and 1.4 M writes — a baseline
for Fig 10 and the wear-out discussion in §IV-D.
"""

from __future__ import annotations

from typing import Any, Generator

from repro import calibration
from repro.counters.base import MonotonicCounter
from repro.errors import CounterUnavailableError, CounterWearError
from repro.sim.core import Event, Simulator


class TPMCounter(MonotonicCounter):
    """A TPM NVRAM counter: slow, serialized, and wearing out."""

    def __init__(self, simulator: Simulator,
                 rate: float = calibration.TPM_COUNTER_RATE,
                 wear_limit: int = calibration.TPM_COUNTER_WEAR_LIMIT_MIN,
                 ) -> None:
        self.simulator = simulator
        self._interval = 1.0 / rate
        self.wear_limit = wear_limit
        self._value = 0
        self._writes = 0
        self._next_allowed = 0.0
        #: Fault injection (:class:`repro.sim.faults.FaultPlan`), attached
        #: via ``FaultPlan.attach``.
        self.fault_plan = None
        self.fault_name = "tpm"

    @property
    def name(self) -> str:
        return "TPM counter"

    def _check_available(self) -> None:
        if (self.fault_plan is not None
                and self.fault_plan.injects("counter_outage",
                                             self.fault_name)):
            raise CounterUnavailableError(
                f"TPM {self.fault_name!r} is unreachable (injected outage)")

    def increment(self) -> Generator[Event, Any, int]:
        self._check_available()
        if self._writes >= self.wear_limit:
            raise CounterWearError(
                f"TPM counter exceeded its {self.wear_limit}-write endurance")
        # The increment occupies one full NVRAM-write interval, starting no
        # earlier than the end of the previous write.
        wait = max(0.0, self._next_allowed - self.simulator.now)
        yield self.simulator.timeout(wait + self._interval)
        self._next_allowed = self.simulator.now
        self._value += 1
        self._writes += 1
        return self._value

    def read(self) -> int:
        self._check_available()
        return self._value

    @property
    def wear(self) -> int:
        return self._writes
