"""A memcached-like in-memory cache with TLS termination (Fig 16).

Functional semantics are real: SET stores, GET returns, DELETE removes,
LRU eviction bounds memory. PALAEMON's role in the paper's benchmark is to
inject the TLS certificate and private key so memcached can terminate TLS
inside the enclave (native memcached needs a stunnel sidecar).
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
                 capacity_items: int = 100_000,
                 tls_certificate: Optional[bytes] = None,
                 tls_private_key: Optional[bytes] = None) -> None:
        super().__init__(simulator, "memcached", calibrated_service_seconds(
            calibration.MEMCACHED_NATIVE_PEAK_RPS, _MODE_FRACTIONS[mode]))
        self.mode = mode
        self.capacity_items = capacity_items
        self._items: "OrderedDict[str, bytes]" = OrderedDict()
        self.tls_certificate = tls_certificate
        self.tls_private_key = tls_private_key
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def tls_enabled(self) -> bool:
        return (self.tls_certificate is not None
                and self.tls_private_key is not None)

    # -- functional operations (no simulated time) -----------------------

    def set(self, key: str, value: bytes) -> None:
        if key in self._items:
            self._items.move_to_end(key)
        self._items[key] = value
        if len(self._items) > self.capacity_items:
            self._items.popitem(last=False)
            self.evictions += 1

    def get(self, key: str) -> Optional[bytes]:
        value = self._items.get(key)
        if value is None:
            self.misses += 1
            return None
        self._items.move_to_end(key)
        self.hits += 1
        return value

    def delete(self, key: str) -> bool:
        return self._items.pop(key, None) is not None

    def __len__(self) -> int:
        return len(self._items)

    # -- timed request handlers -----------------------------------------------

    def handle_get(self, key: str) -> Generator[Event, Any, Optional[bytes]]:
        yield self.simulator.process(self.serve())
        return self.get(key)

    def handle_set(self, key: str,
                   value: bytes) -> Generator[Event, Any, None]:
        yield self.simulator.process(self.serve())
        self.set(key, value)
