"""The Prometheus-style text exporter.

:func:`render_prometheus` is a text snapshot of every metric series in
sorted order, with histograms rendered summary-style (``_count``,
``_sum``, and ``quantile=""`` series), suitable for diffing between runs
or scraping out of a debug endpoint. It is deterministic for a given run.
"""

from __future__ import annotations

from typing import List

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.metrics import summarize


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(labels, extra=()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + inner + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """All metric series as Prometheus-style exposition text."""
    lines: List[str] = []
    seen_types = set()
    for metric in registry.series():
        if metric.name not in seen_types:
            seen_types.add(metric.name)
            kind = "summary" if isinstance(metric, Histogram) else metric.kind
            lines.append(f"# TYPE {metric.name} {kind}")
        if isinstance(metric, (Counter, Gauge)):
            lines.append(f"{metric.name}{_render_labels(metric.labels)} "
                         f"{_format_value(metric.value)}")
        elif isinstance(metric, Histogram):
            labels = metric.labels
            if metric.samples:
                summary = summarize(metric.samples, name=metric.name)
                for quantile, value in (("0.5", summary.p50),
                                        ("0.95", summary.p95),
                                        ("0.99", summary.p99)):
                    rendered = _render_labels(labels,
                                              extra=[("quantile", quantile)])
                    lines.append(f"{metric.name}{rendered} "
                                 f"{_format_value(value)}")
            lines.append(f"{metric.name}_count{_render_labels(labels)} "
                         f"{metric.count}")
            lines.append(f"{metric.name}_sum{_render_labels(labels)} "
                         f"{_format_value(metric.total)}")
    return "\n".join(lines) + ("\n" if lines else "")
