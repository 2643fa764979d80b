"""Enclave loader: startup cost model (Table II, Fig 7).

Setting up an enclave involves four cost components, each with a calibrated
throughput: *adding* pages (EADD), *measuring* them (EEXTEND — an order of
magnitude slower than everything else), *evicting* EPC pages when the
enclave exceeds the cache, and *bookkeeping* (allocation, copying).

The PALAEMON/SCONE loader measures **only code and initialized data** and
adds zeroed heap pages unmeasured; a naive loader measures every page. The
difference is exactly Fig 7: naive startup grows linearly with enclave size
at ~148 MB/s while PALAEMON startup stays near-flat.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Generator

from repro import calibration
from repro.sim.core import Event, Simulator
from repro.tee.epc import EnclavePageCache
from repro.tee.image import EnclaveImage


class MeasurementScope(enum.Enum):
    """What the loader measures into MRENCLAVE."""

    #: PALAEMON/SCONE: measure code + initialized data only.
    CODE_ONLY = "code-only"
    #: Naive loader: measure every page including heap.
    ALL_PAGES = "all-pages"


@dataclass(frozen=True)
class LoadReport:
    """Breakdown of one enclave load (the stacked bars of Fig 7)."""

    image_name: str
    scope: MeasurementScope
    addition_seconds: float
    measurement_seconds: float
    eviction_seconds: float
    bookkeeping_seconds: float

    @property
    def total_seconds(self) -> float:
        return (self.addition_seconds + self.measurement_seconds
                + self.eviction_seconds + self.bookkeeping_seconds)


class EnclaveLoader:
    """Loads images into the EPC, charging calibrated per-byte costs."""

    def __init__(self, simulator: Simulator, epc: EnclavePageCache) -> None:
        self.simulator = simulator
        self.epc = epc

    def load(self, image: EnclaveImage,
             scope: MeasurementScope = MeasurementScope.CODE_ONLY,
             ) -> Generator[Event, Any, LoadReport]:
        """Load ``image``; a process returning the cost breakdown.

        The addition + bookkeeping work holds the driver's global EPC lock —
        the serialization that caps parallel startups (Fig 9).
        """
        total = image.total_bytes
        measured = (total if scope is MeasurementScope.ALL_PAGES
                    else image.measured_bytes)

        addition_seconds = total / calibration.PAGE_ADDITION_BPS
        bookkeeping_seconds = total / calibration.PAGE_BOOKKEEPING_BPS
        measurement_seconds = measured / calibration.PAGE_MEASUREMENT_BPS

        # Page allocation is serialized by the driver lock; per-start we also
        # charge the fixed driver critical section observed in Fig 9.
        evicted = yield self.simulator.process(self.epc.allocate(
            total,
            hold_driver_lock_seconds=(
                calibration.SGX_DRIVER_LOCK_SECONDS_PER_START)))
        eviction_seconds = evicted / calibration.PAGE_EVICTION_BPS

        # Measurement and the remaining copy work run outside the lock.
        yield self.simulator.timeout(addition_seconds + bookkeeping_seconds
                                     + measurement_seconds + eviction_seconds)
        return LoadReport(
            image_name=image.name,
            scope=scope,
            addition_seconds=addition_seconds,
            measurement_seconds=measurement_seconds,
            eviction_seconds=eviction_seconds,
            bookkeeping_seconds=bookkeeping_seconds,
        )
