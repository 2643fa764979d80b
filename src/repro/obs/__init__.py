"""Observability for the PALAEMON reproduction (metrics, traces, audit).

Three always-on, zero-dependency primitives, all driven by the simulator
clock so they are deterministic and free in virtual time:

- :mod:`repro.obs.metrics` — labelled counters, gauges, and histograms
  whose percentile math is shared with the benchmark harness;
- :mod:`repro.obs.tracing` — nested spans over ``Simulator.now``;
- :mod:`repro.obs.audit` — a SHA-256 hash-chained audit log in which a
  Byzantine operator cannot silently edit, drop, or reorder records.

:class:`~repro.obs.telemetry.Telemetry` bundles the three;
:data:`~repro.obs.telemetry.NULL_TELEMETRY` is the no-op sink.
The Prometheus-style exporter lives in :mod:`repro.obs.export`.
"""

from repro.obs.audit import GENESIS_HASH, AuditLog, AuditRecord
from repro.obs.export import render_prometheus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.tracing import Span, Tracer

__all__ = [
    "AuditLog",
    "AuditRecord",
    "Counter",
    "Gauge",
    "GENESIS_HASH",
    "Histogram",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "Span",
    "Telemetry",
    "Tracer",
    "render_prometheus",
]
