"""ROTE-style distributed monotonic counters.

ROTE (Matetic et al., USENIX Security '17) replicates counter state in the
memory of a group of enclaves: an increment is a quorum round over the
network instead of an NVRAM write. With 4 servers on a LAN the paper quotes
~500 ops/s. The quorum logic here is real — an increment contacts all
replicas and waits for a majority of acknowledgements — so throughput falls
out of network latency rather than being hard-coded.
"""

from __future__ import annotations

from typing import Any, Generator, List

from repro import calibration
from repro.errors import CounterError, CounterUnavailableError
from repro.sim.core import Event, Simulator
from repro.sim.network import Site, rtt_between


class _Replica:
    """One group member holding the counter in enclave memory."""

    def __init__(self) -> None:
        self.value = 0
        self.alive = True

    def prepare(self, proposed: int) -> bool:
        """Accept a proposed counter value if it moves forward."""
        if not self.alive or proposed <= self.value:
            return False
        self.value = proposed
        return True


class ROTECounterGroup:
    """A counter replicated across a group of enclaves in one data centre."""

    def __init__(self, simulator: Simulator, group_size: int = 4) -> None:
        if group_size < 3:
            raise CounterError("ROTE needs a group of at least 3")
        self.simulator = simulator
        self.replicas: List[_Replica] = [
            _Replica() for _ in range(group_size)]
        self._value = 0
        #: Fault injection (:class:`repro.sim.faults.FaultPlan`), attached
        #: via ``FaultPlan.attach``.
        self.fault_plan = None
        self.fault_name = "rote-group"

    def _check_available(self) -> None:
        if (self.fault_plan is not None
                and self.fault_plan.injects("counter_outage",
                                             self.fault_name)):
            raise CounterUnavailableError(
                f"ROTE group {self.fault_name!r} is unreachable "
                f"(injected outage)")

    @property
    def quorum(self) -> int:
        return len(self.replicas) // 2 + 1

    def increment(self) -> Generator[Event, Any, int]:
        self._check_available()
        proposed = self._value + 1
        # One round: send to all replicas, wait for a quorum of acks. The
        # round costs a LAN round trip plus per-replica processing,
        # serialized at the coordinating enclave.
        round_trip = rtt_between(Site.SAME_RACK, Site.SAME_DC)
        yield self.simulator.timeout(
            round_trip + calibration.ROTE_PROCESSING_SECONDS)
        acks = sum(1 for replica in self.replicas if replica.prepare(proposed))
        if acks < self.quorum:
            raise CounterError(
                f"ROTE increment failed: {acks} acks < quorum {self.quorum}")
        self._value = proposed
        return self._value
