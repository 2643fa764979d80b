"""Experiment drivers: offered-rate and concurrency sweeps.

Every throughput/latency figure in the paper is one of two shapes:
an *open-loop rate sweep* (wrk2/memtier style: fix the offered rate, measure
latency until it spikes) or a *closed-loop concurrency sweep* (parallel
starts in Fig 9). These helpers run either shape against a fresh server per
point so queues do not leak between points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Sequence, Tuple

from repro.crypto.primitives import DeterministicRandom
from repro.sim.core import Event, Simulator
from repro.sim.metrics import ThroughputLatencyPoint, find_knee
from repro.sim.workload import run_closed_loop, run_open_loop

#: Builds a fresh (simulator, request-factory) pair for one sweep point.
SetupFn = Callable[[Simulator], Callable[[int], Generator[Event, Any, Any]]]


@dataclass
class ExperimentResult:
    """A named throughput/latency curve."""

    name: str
    points: List[ThroughputLatencyPoint] = field(default_factory=list)

    def knee(self, latency_limit: float) -> float:
        """Highest throughput with mean latency under ``latency_limit``."""
        return find_knee(self.points, latency_limit)

    def peak_rate(self) -> float:
        return max(point.achieved_rate for point in self.points)

    def latency_at_lowest_load(self) -> float:
        return self.points[0].latency.mean

    def rows(self) -> List[Tuple[float, float, float]]:
        """(offered, achieved, mean-latency-ms) rows for table rendering."""
        return [(point.offered_rate, point.achieved_rate,
                 point.latency.mean * 1e3) for point in self.points]


def rate_sweep(name: str, setup: SetupFn, rates: Sequence[float],
               duration: float = 2.0,
               seed: bytes = b"rate-sweep") -> ExperimentResult:
    """Open-loop sweep: one fresh simulator + server per offered rate."""
    result = ExperimentResult(name=name)
    for index, rate in enumerate(rates):
        simulator = Simulator()
        factory = setup(simulator)
        rng = DeterministicRandom(seed + str(index).encode())
        point = run_open_loop(simulator, rate, factory, rng, duration)
        result.points.append(point)
    return result


def concurrency_sweep(name: str, setup: SetupFn,
                      concurrencies: Sequence[int],
                      duration: float = 2.0) -> ExperimentResult:
    """Closed-loop sweep: one fresh simulator + server per concurrency."""
    result = ExperimentResult(name=name)
    for concurrency in concurrencies:
        simulator = Simulator()
        factory = setup(simulator)
        point = run_closed_loop(simulator, concurrency, factory, duration)
        result.points.append(point)
    return result
