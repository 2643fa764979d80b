"""SGX platform counters as a Fig 10 contender."""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.core import Event
from repro.tee.counters import PlatformCounterService


class SGXPlatformCounter:
    """Variant (a) of Fig 10: the SGX SDK's platform counters."""

    def __init__(self, service: PlatformCounterService,
                 counter_id: str) -> None:
        self._service = service
        self._counter_id = counter_id
        service.create(counter_id)

    def increment(self) -> Generator[Event, Any, int]:
        value = yield self._service.simulator.process(
            self._service.increment(self._counter_id))
        return value
