"""The Enclave Page Cache (EPC).

Two properties of the real EPC shape the paper's results and are modelled
here:

1. **Capacity** — the evaluation cluster reserves 128 MB; allocating past
   it evicts older pages, which the loader charges (Fig 7, Table II). The
   paging of Vault's 1.9 GB heap and MariaDB's large buffer pools is part
   of those apps' calibrated service times (``repro.apps``).
2. **The driver's global allocation lock** — EPC page (de)allocation is
   serialized by a single lock in the SGX driver, which caps concurrent
   enclave startups at ~100/s no matter how many cores are present (Fig 9).
"""

from __future__ import annotations

from typing import Any, Generator

from repro import calibration
from repro.errors import EnclaveError
from repro.sim.core import Event, Simulator
from repro.sim.resources import Resource


class EnclavePageCache:
    """EPC accounting plus the driver-global allocation lock."""

    def __init__(self, simulator: Simulator,
                 size_bytes: int = calibration.EPC_SIZE_DEFAULT,
                 usable_fraction: float = calibration.EPC_USABLE_FRACTION,
                 ) -> None:
        self.simulator = simulator
        self.size_bytes = size_bytes
        self.usable_bytes = int(size_bytes * usable_fraction)
        self.allocated_bytes = 0
        self.driver_lock = Resource(simulator, capacity=1,
                                    name="sgx-driver-epc-lock")
        self.evicted_bytes = 0

    @property
    def free_bytes(self) -> int:
        return max(0, self.usable_bytes - self.allocated_bytes)

    def allocate(self, nbytes: int,
                 hold_driver_lock_seconds: float = 0.0,
                 ) -> Generator[Event, Any, int]:
        """Allocate pages under the driver lock; returns bytes evicted.

        If the request exceeds free EPC, older pages are evicted (their cost
        is charged by the caller using :data:`calibration.PAGE_EVICTION_BPS`).
        """
        if nbytes < 0:
            raise EnclaveError("cannot allocate negative bytes")
        grant = self.driver_lock.acquire()
        try:
            yield grant
            if hold_driver_lock_seconds > 0:
                yield self.simulator.timeout(hold_driver_lock_seconds)
            evicted = 0
            if nbytes > self.free_bytes:
                evicted = nbytes - self.free_bytes
                self.allocated_bytes = max(0, self.allocated_bytes - evicted)
                self.evicted_bytes += evicted
            self.allocated_bytes += nbytes
            return evicted
        finally:
            self.driver_lock.give_back(grant)

    def free(self, nbytes: int) -> None:
        """Return pages to the EPC (enclave teardown)."""
        if nbytes < 0:
            raise EnclaveError("cannot free negative bytes")
        self.allocated_bytes = max(0, self.allocated_bytes - nbytes)
