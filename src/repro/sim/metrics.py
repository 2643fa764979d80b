"""Measurement helpers: latency recorders, throughput meters, percentiles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``samples`` (fraction in [0, 1])."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1 - weight) + ordered[upper] * weight


@dataclass
class LatencySummary:
    """Summary statistics for a batch of latencies (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean * 1e3:.3f}ms "
                f"p50={self.p50 * 1e3:.3f}ms p95={self.p95 * 1e3:.3f}ms "
                f"p99={self.p99 * 1e3:.3f}ms max={self.maximum * 1e3:.3f}ms")


def summarize(samples: Sequence[float],
              name: str = "samples") -> LatencySummary:
    """The canonical sample -> :class:`LatencySummary` reduction.

    Every consumer of percentile statistics (`LatencyRecorder`, the
    ``repro.obs`` histograms, benchmark exports) goes through this one
    function so the percentile math is defined exactly once.
    """
    if not samples:
        raise ValueError(f"{name!r} has no samples")
    return LatencySummary(
        count=len(samples),
        mean=sum(samples) / len(samples),
        p50=percentile(samples, 0.50),
        p95=percentile(samples, 0.95),
        p99=percentile(samples, 0.99),
        minimum=min(samples),
        maximum=max(samples),
    )


def summary_to_dict(summary: LatencySummary) -> Dict[str, float]:
    """Flatten a :class:`LatencySummary` into JSON-serializable primitives."""
    return {
        "count": summary.count,
        "mean": summary.mean,
        "p50": summary.p50,
        "p95": summary.p95,
        "p99": summary.p99,
        "min": summary.minimum,
        "max": summary.maximum,
    }


class LatencyRecorder:
    """Collects request latencies and summarizes them."""

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self.samples: List[float] = []

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        self.samples.append(seconds)

    def __len__(self) -> int:
        return len(self.samples)

    def summary(self) -> LatencySummary:
        return summarize(self.samples, name=self.name)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)


class ThroughputMeter:
    """Counts completed operations over a virtual-time window."""

    def __init__(self, name: str = "throughput") -> None:
        self.name = name
        self.completed = 0
        self._start: Optional[float] = None
        self._end: Optional[float] = None

    def start(self, now: float) -> None:
        self._start = now

    def record(self, now: float) -> None:
        if self._start is None:
            self._start = now
        self.completed += 1
        self._end = now

    def rate(self) -> float:
        """Completed operations per second of virtual time."""
        if self._start is None or self._end is None:
            return 0.0
        elapsed = self._end - self._start
        if elapsed <= 0:
            return float("inf") if self.completed else 0.0
        return self.completed / elapsed


@dataclass
class ThroughputLatencyPoint:
    """One point of a throughput/latency curve (Figs 9, 13-17)."""

    offered_rate: float
    achieved_rate: float
    latency: LatencySummary

    def __str__(self) -> str:
        return (f"offered={self.offered_rate:.1f}/s "
                f"achieved={self.achieved_rate:.1f}/s "
                f"mean={self.latency.mean * 1e3:.2f}ms "
                f"p95={self.latency.p95 * 1e3:.2f}ms")


def find_knee(points: Sequence[ThroughputLatencyPoint],
              latency_limit: float) -> float:
    """The highest achieved rate whose mean latency is under the limit.

    This is how the paper reads "X achieves N req/s before latencies spike".
    """
    best = 0.0
    for point in points:
        if point.latency.mean <= latency_limit:
            best = max(best, point.achieved_rate)
    return best
