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

from repro.counters.base import MonotonicCounter
from repro.errors import CounterError, CounterUnavailableError
from repro.sim.core import Event, Simulator
from repro.sim.network import Site, rtt_between


class _Replica:
    """One group member holding the counter in enclave memory."""

    def __init__(self, replica_id: int, site: Site) -> None:
        self.replica_id = replica_id
        self.site = site
        self.value = 0
        self.alive = True

    def prepare(self, proposed: int) -> bool:
        """Accept a proposed counter value if it moves forward."""
        if not self.alive or proposed <= self.value:
            return False
        self.value = proposed
        return True


class ROTECounterGroup(MonotonicCounter):
    """A counter replicated across a group of enclaves."""

    def __init__(self, simulator: Simulator, group_size: int = 4,
                 site: Site = Site.SAME_DC,
                 processing_seconds: float = 1.2e-3) -> None:
        if group_size < 3:
            raise CounterError("ROTE needs a group of at least 3")
        self.simulator = simulator
        self.site = site
        #: Per-request enclave processing cost at each replica (quorum of
        #: enclave transitions + ECDSA-class crypto), calibrated so a
        #: 4-server LAN group lands near the cited ~500 ops/s.
        self.processing_seconds = processing_seconds
        self.replicas: List[_Replica] = [
            _Replica(i, site) for i in range(group_size)]
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
    def name(self) -> str:
        return f"ROTE group ({len(self.replicas)} servers)"

    @property
    def quorum(self) -> int:
        return len(self.replicas) // 2 + 1

    def fail_replica(self, replica_id: int) -> None:
        """Crash one group member (fault-injection tests)."""
        self.replicas[replica_id].alive = False

    def increment(self) -> Generator[Event, Any, int]:
        self._check_available()
        proposed = self._value + 1
        # One round: send to all replicas, wait for a quorum of acks. The
        # round costs a LAN round trip plus per-replica processing,
        # serialized at the coordinating enclave.
        round_trip = rtt_between(Site.SAME_RACK, self.site)
        yield self.simulator.timeout(round_trip + self.processing_seconds)
        acks = sum(1 for replica in self.replicas if replica.prepare(proposed))
        if acks < self.quorum:
            raise CounterError(
                f"ROTE increment failed: {acks} acks < quorum {self.quorum}")
        self._value = proposed
        return self._value

    def read(self) -> int:
        self._check_available()
        return self._value
