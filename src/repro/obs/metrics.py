"""In-enclave metrics: counters, gauges, and histograms with labels.

A :class:`MetricsRegistry` is the single mutable home of every metric a
PALAEMON instance emits. Metrics are identified by a name plus a sorted
label set (Prometheus-style), so ``palaemon_rest_requests_total{route=
"policy.create"}`` and ``...{route="tag.update"}`` are distinct series of
one family. Histograms defer their percentile math to
:func:`repro.sim.metrics.summarize` — the same reduction the benchmark
harness uses — so "what the operator sees" and "what the benchmarks
report" can never drift apart.

Everything here is pure bookkeeping: no I/O, no wall-clock reads, no
simulated latency. Instrumented hot paths stay exactly as fast (in
virtual time) as uninstrumented ones.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, Tuple

#: Samples a histogram keeps for its quantiles.
MAX_HISTOGRAM_SAMPLES = 1024

#: A label set in canonical form: sorted (key, value) pairs.
LabelSet = Tuple[Tuple[str, str], ...]


def canonical_labels(labels: Dict[str, str]) -> LabelSet:
    """Sort and stringify a label dict into its canonical tuple form."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (requests served, votes cast)."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (current counter value, peers)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A distribution of observations (latencies, batch sizes).

    ``count`` and ``total`` cover every observation. Raw samples are kept
    for the newest :data:`MAX_HISTOGRAM_SAMPLES` observations — a sliding
    window, like a Prometheus summary's — so memory stays bounded on a
    long-running service. The exporter summarizes that window through the
    shared :func:`repro.sim.metrics.summarize`, so percentile semantics
    match the benchmark harness exactly.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self.samples: Deque[float] = deque(maxlen=MAX_HISTOGRAM_SAMPLES)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.samples.append(float(value))
        self.count += 1
        self.total += value


class MetricsRegistry:
    """All metrics of one telemetry domain, keyed by (name, labels).

    A repeated call finds its series in a cache keyed on the kind, the
    name and the labels exactly as the caller passed them, so only a
    call's first appearance pays for :func:`canonical_labels`. Only label
    sets whose values are all ``str`` enter the cache: ``1``, ``1.0`` and
    ``True`` are equal dict keys but name different series.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelSet], object] = {}
        self._kinds: Dict[str, str] = {}
        self._calls: Dict[tuple, object] = {}

    def _get(self, factory, name: str, labels: Dict[str, str]):
        call = (factory.kind, name, *labels.items())
        try:
            return self._calls[call]
        except KeyError:
            metric = self._get_canonical(factory, name, labels)
        except TypeError:  # an unhashable label value
            return self._get_canonical(factory, name, labels)
        if all(type(value) is str for value in labels.values()):
            self._calls[call] = metric
        return metric

    def _get_canonical(self, factory, name: str, labels: Dict[str, str]):
        kind = factory.kind
        known = self._kinds.setdefault(name, kind)
        if known != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {known}, "
                f"cannot reuse it as a {kind}")
        key = (name, canonical_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, key[1])
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)

    def series(self) -> Iterator[object]:
        """Every metric series in deterministic (name, labels) order."""
        for key in sorted(self._metrics):
            yield self._metrics[key]
