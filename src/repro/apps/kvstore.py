"""A memcached-like in-memory cache (Fig 16).

Functional semantics are real: SET stores, GET returns, DELETE removes,
LRU eviction bounds memory. PALAEMON's role in the paper's benchmark is to
inject the TLS certificate and private key so memcached can terminate TLS
inside the enclave (native memcached needs a stunnel sidecar). No input
models that TLS termination: its cost is priced inside each mode's
calibrated service time.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Generator, Optional

from repro import calibration
from repro.apps.base import SimulatedServer, calibrated_service_seconds
from repro.sim.core import Event, Simulator
from repro.tee.enclave import ExecutionMode

_MODE_FRACTIONS = {
    ExecutionMode.NATIVE: 1.0,
    ExecutionMode.EMULATED: calibration.MEMCACHED_EMU_FRACTION,
    ExecutionMode.HARDWARE: calibration.MEMCACHED_HW_FRACTION,
}


class MemcachedServer(SimulatedServer):
    """memcached with memtier-shaped GET/SET traffic."""

    def __init__(self, simulator: Simulator,
                 mode: ExecutionMode = ExecutionMode.NATIVE,
                 capacity_items: int = 100_000) -> None:
        super().__init__(simulator, "memcached", calibrated_service_seconds(
            calibration.MEMCACHED_NATIVE_PEAK_RPS, _MODE_FRACTIONS[mode]))
        self.mode = mode
        self.capacity_items = capacity_items
        self._items: "OrderedDict[str, bytes]" = OrderedDict()

    # -- functional operations (no simulated time) -----------------------

    def set(self, key: str, value: bytes) -> None:
        if key in self._items:
            self._items.move_to_end(key)
        self._items[key] = value
        if len(self._items) > self.capacity_items:
            self._items.popitem(last=False)

    def get(self, key: str) -> Optional[bytes]:
        value = self._items.get(key)
        if value is not None:
            self._items.move_to_end(key)
        return value

    # -- timed request handlers -----------------------------------------------

    def handle_get(self, key: str) -> Generator[Event, Any, Optional[bytes]]:
        yield self.simulator.process(self.serve())
        return self.get(key)

    def handle_set(self, key: str,
                   value: bytes) -> Generator[Event, Any, None]:
        yield self.simulator.process(self.serve())
        self.set(key, value)
