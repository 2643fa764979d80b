"""Common machinery for macro-benchmark servers.

A :class:`SimulatedServer` owns a pool of worker threads and one per-request
service time. Handlers run real application logic (so functional tests
exercise semantics) and hold a worker for that time; throughput/latency
curves then come out of the DES queueing rather than formulae.

Cost model: each app computes its service time once, at construction, from
the paper's measured native peak and thread count divided by the measured
fraction for its mode, variant or configuration (docs/SIMULATION.md).
Enclave exits, syscalls and EPC faults are not charged one by one; the
calibrated fraction stands for all of them. The service time is
calibrated, the queueing is emergent — that split is stated in DESIGN.md.
"""

from __future__ import annotations

from typing import Any, Generator

from repro import calibration
from repro.sim.core import Event, Simulator
from repro.sim.resources import Resource


def calibrated_service_seconds(native_peak_rps: float, fraction: float = 1.0,
                               threads: int = calibration.CPU_HYPERTHREADS,
                               ) -> float:
    """Per-request time at which ``threads`` workers reach ``fraction`` of
    the paper's measured native peak."""
    return threads / native_peak_rps / fraction


class SimulatedServer:
    """A threaded request server with one calibrated service time."""

    def __init__(self, simulator: Simulator, name: str,
                 service_seconds: float,
                 threads: int = calibration.CPU_HYPERTHREADS) -> None:
        if service_seconds <= 0:
            raise ValueError(f"{name}: service time must be positive")
        self.simulator = simulator
        self.name = name
        self.service_seconds = service_seconds
        self.threads = threads
        self.workers = Resource(simulator, capacity=threads,
                                name=f"{name}-workers")
        self.requests_served = 0

    def peak_rate(self) -> float:
        """Theoretical saturation throughput."""
        return self.threads / self.service_seconds

    def serve(self) -> Generator[Event, Any, None]:
        """Occupy one worker for one request's service time."""
        yield self.workers.acquire()
        try:
            yield self.simulator.timeout(self.service_seconds)
            self.requests_served += 1
        finally:
            self.workers.release()
