"""The telemetry facade: one object per instrumented domain.

A :class:`Telemetry` bundles the three observability primitives —
:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.tracing.Tracer`, and
:class:`~repro.obs.audit.AuditLog` — behind the terse calls hot paths
actually make (``inc``, ``observe``, ``audit``, ``span``). It is wired to
the *simulator* clock, so recording is free in virtual time and
deterministic across runs.

A disabled instance (``enabled=False``, or the shared
:data:`NULL_TELEMETRY` sink) turns every call into a no-op so
latency-calibrated benchmarks can opt out without branching at call
sites. Instrumented code never checks ``if telemetry:`` — it just calls.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.audit import AuditLog, AuditRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


class _NullSpan:
    """The span handle a disabled telemetry hands out."""

    span = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Metrics + traces + audit log for one PALAEMON domain."""

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = True) -> None:
        self._clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self._clock)
        self.audit_log = AuditLog(self._clock)

    @classmethod
    def for_simulator(cls, simulator) -> "Telemetry":
        """A telemetry domain on the simulator's virtual clock."""
        return cls(clock=lambda: simulator.now)

    @property
    def now(self) -> float:
        return self._clock()

    # -- metrics ----------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        if self.enabled:
            self.metrics.counter(name, **labels).inc(amount)

    def gauge(self, name: str, value: float, **labels: str) -> None:
        if self.enabled:
            self.metrics.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        if self.enabled:
            self.metrics.histogram(name, **labels).observe(value)

    # -- tracing ----------------------------------------------------------

    def span(self, name: str, **attributes: str):
        """Open a (possibly nested) span; use as a context manager."""
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(name, **attributes)

    # -- audit ------------------------------------------------------------

    def audit(self, kind: str, **details: object) -> Optional[AuditRecord]:
        if not self.enabled:
            return None
        return self.audit_log.append(kind, **details)

    def verify_audit_chain(self,
                           expected_head: Optional[bytes] = None) -> int:
        return self.audit_log.verify_chain(expected_head)

    # -- export -----------------------------------------------------------

    def snapshot_text(self) -> str:
        """Prometheus-style text rendering of every metric series."""
        from repro.obs.export import render_prometheus

        return render_prometheus(self.metrics)


#: The shared no-op sink: accepts every call, records nothing.
NULL_TELEMETRY = Telemetry(enabled=False)
