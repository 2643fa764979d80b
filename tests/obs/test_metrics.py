"""Metrics registry semantics and the shared-percentile satellite: the
obs histograms, the latency recorders, and the benchmark JSON export must
all reduce samples through one implementation."""

import pytest

from repro.obs.export import render_prometheus
from repro.obs.metrics import MAX_HISTOGRAM_SAMPLES, MetricsRegistry
from repro.sim.metrics import (
    LatencyRecorder,
    percentile,
    summarize,
    summary_to_dict,
)


def series_count(registry):
    return len(list(registry.series()))


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("requests_total").inc()
        registry.counter("requests_total").inc(4)
        assert registry.counter("requests_total").value == 5

    def test_labelled_series_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", op="create").inc()
        registry.counter("ops_total", op="delete").inc(2)
        assert registry.counter("ops_total", op="create").value == 1
        assert registry.counter("ops_total", op="delete").value == 2
        assert {metric.name for metric in registry.series()} == {"ops_total"}
        assert series_count(registry) == 2

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("m", b="2", a="1").inc()
        assert registry.counter("m", a="1", b="2").value == 1

    def test_counters_refuse_to_go_down(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_gauge_holds_the_last_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.set(4)
        assert registry.gauge("depth").value == 4

    def test_name_cannot_change_kind(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m")

    def test_name_cannot_change_kind_once_cached(self):
        registry = MetricsRegistry()
        registry.counter("m", route="a")
        registry.counter("m", route="a")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m", route="a")


class TestSeriesCache:
    """A repeated call finds its series without canonicalising its labels;
    every spelling of a label set still names the canonical series."""

    def test_keyword_order_names_one_series(self):
        registry = MetricsRegistry()
        first = registry.counter("m", a="1", b="2")
        assert registry.counter("m", b="2", a="1") is first
        assert registry.counter("m", a="1", b="2") is first
        assert series_count(registry) == 1

    def test_int_and_str_values_name_one_series(self):
        registry = MetricsRegistry()
        for _ in range(2):
            registry.counter("m", code=404).inc()
            registry.counter("m", code="404").inc()
        assert registry.counter("m", code="404").value == 4
        assert series_count(registry) == 1

    def test_equal_values_with_different_text_stay_apart(self):
        registry = MetricsRegistry()
        registry.counter("m", code=1).inc()
        registry.counter("m", code=True).inc(2)
        registry.counter("m", code=1.0).inc(4)
        assert registry.counter("m", code="1").value == 1
        assert registry.counter("m", code="True").value == 2
        assert registry.counter("m", code="1.0").value == 4

    def test_unhashable_value_takes_the_canonical_path(self):
        registry = MetricsRegistry()
        registry.counter("m", peers=["a", "b"]).inc()
        registry.counter("m", peers=["a", "b"]).inc()
        assert registry.counter("m", peers="['a', 'b']").value == 2
        assert series_count(registry) == 1

    def test_repeated_call_skips_canonical_labels(self, monkeypatch):
        from repro.obs import metrics

        registry = MetricsRegistry()
        registry.histogram("h", route="tag.get", transport="rest")
        calls = []
        monkeypatch.setattr(metrics, "canonical_labels",
                            lambda labels: calls.append(labels))
        registry.histogram("h", route="tag.get", transport="rest")
        assert calls == []


class TestHistogramSharedMath:
    def test_histogram_percentiles_match_sim_metrics(self):
        """The satellite: one percentile implementation everywhere."""
        samples = [0.001 * n for n in range(1, 101)]
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds")
        recorder = LatencyRecorder()
        for sample in samples:
            histogram.observe(sample)
            recorder.record(sample)
        hist_summary = summarize(histogram.samples)
        rec_summary = recorder.summary()
        assert hist_summary == rec_summary
        assert hist_summary.p95 == percentile(samples, 0.95)
        assert hist_summary.p50 == percentile(samples, 0.50)

    def test_benchlib_export_uses_shared_summary_dict(self):
        from repro.benchlib.export import result_to_dict
        from repro.benchlib.harness import ExperimentResult
        from repro.sim.metrics import ThroughputLatencyPoint

        samples = [0.010, 0.020, 0.030]
        point = ThroughputLatencyPoint(
            offered_rate=10.0, achieved_rate=9.0,
            latency=summarize(samples))
        document = result_to_dict(ExperimentResult("curve", [point]))
        assert document["points"][0]["latency"] == summary_to_dict(
            summarize(samples))
        assert document["points"][0]["latency"]["p95"] == percentile(
            samples, 0.95)

    def test_histogram_keeps_a_bounded_window(self):
        """Count and sum cover every observation; quantiles come from the
        newest ``MAX_HISTOGRAM_SAMPLES`` samples."""
        histogram = MetricsRegistry().histogram("latency")
        observations = 3 * MAX_HISTOGRAM_SAMPLES
        for value in range(observations):
            histogram.observe(float(value))
        assert histogram.count == observations
        assert histogram.total == sum(range(observations))
        assert list(histogram.samples) == [
            float(value) for value in
            range(observations - MAX_HISTOGRAM_SAMPLES, observations)]
        assert summarize(histogram.samples).count == MAX_HISTOGRAM_SAMPLES

    def test_empty_histogram_summary_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="no samples"):
            summarize(registry.histogram("empty").samples)


class TestPrometheusRendering:
    def test_snapshot_contains_types_and_series(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", route="a").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat_seconds").observe(0.5)
        text = render_prometheus(registry)
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{route="a"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text
        assert "# TYPE lat_seconds summary" in text
        assert 'lat_seconds{quantile="0.5"} 0.5' in text
        assert "lat_seconds_count 1" in text
        assert "lat_seconds_sum 0.5" in text

    def test_rendering_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("z_total", op="b").inc()
            registry.counter("a_total").inc(2)
            registry.counter("z_total", op="a").inc()
            return render_prometheus(registry)

        assert build() == build()

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
