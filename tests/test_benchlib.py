"""Tests for the benchmark harness library."""

import pytest

from repro.benchlib.harness import (
    ExperimentResult,
    concurrency_sweep,
    rate_sweep,
)
from repro.benchlib.tables import (
    PaperComparison,
    format_table,
    paper_vs_measured,
)
from repro.sim.resources import Resource


def fixed_server_setup(service_time):
    """SetupFn for a one-thread server with fixed service time."""

    def setup(simulator):
        resource = Resource(simulator, capacity=1)

        def factory(_request_id):
            yield resource.acquire()
            try:
                yield simulator.timeout(service_time)
            finally:
                resource.release()

        return factory

    return setup


class TestRateSweep:
    def test_latency_spikes_past_capacity(self):
        result = rate_sweep("s", fixed_server_setup(0.01),
                            rates=[20, 50, 90, 200], duration=2.0)
        latencies = [point.latency.mean for point in result.points]
        assert latencies[-1] > 10 * latencies[0]

    def test_knee_near_capacity(self):
        result = rate_sweep("s", fixed_server_setup(0.01),
                            rates=[20, 50, 80, 95, 150, 300], duration=3.0)
        knee = result.knee(latency_limit=0.05)
        assert 70 <= knee <= 110  # capacity is 100/s

    def test_fresh_server_per_point(self):
        """Queues must not leak between sweep points."""
        result = rate_sweep("s", fixed_server_setup(0.01),
                            rates=[300, 20], duration=1.0)
        # The second (light) point must not inherit the first point's queue.
        assert result.points[1].latency.mean < 0.02

    def test_rows(self):
        result = rate_sweep("s", fixed_server_setup(0.001),
                            rates=[10], duration=1.0)
        rows = result.rows()
        assert len(rows) == 1
        offered, achieved, latency_ms = rows[0]
        assert offered == 10


class TestConcurrencySweep:
    def test_throughput_saturates(self):
        result = concurrency_sweep("s", fixed_server_setup(0.01),
                                   concurrencies=[1, 4, 16], duration=2.0)
        rates = [point.achieved_rate for point in result.points]
        assert rates[0] == pytest.approx(100, rel=0.05)
        assert rates[2] == pytest.approx(100, rel=0.05)

    def test_peak_rate(self):
        result = concurrency_sweep("s", fixed_server_setup(0.01),
                                   concurrencies=[1, 2], duration=1.0)
        assert result.peak_rate() == pytest.approx(100, rel=0.1)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"],
                            [["a", 1.0], ["long-name", 123456.0]],
                            title="Demo")
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert "123,456" in text

    def test_float_rendering(self):
        text = format_table(["v"], [[0.00123], [12.3456], [0.0]])
        assert "0.00123" in text
        assert "12.35" in text

    def test_comparison_within_tolerance(self):
        comparison = PaperComparison("rate", paper_value=100,
                                     measured_value=110)
        assert comparison.within_tolerance
        assert comparison.ratio == pytest.approx(1.1)

    def test_comparison_divergent(self):
        comparison = PaperComparison("rate", paper_value=100,
                                     measured_value=300)
        assert not comparison.within_tolerance
        assert "DIVERGES" in comparison.row()

    def test_zero_paper_value(self):
        assert PaperComparison("x", 0, 0).ratio == 1.0
        assert PaperComparison("x", 0, 5).ratio == float("inf")

    def test_paper_vs_measured_rendering(self):
        text = paper_vs_measured(
            [PaperComparison("throughput", 100, 95, unit="req/s")],
            title="Fig X")
        assert "Fig X" in text
        assert "req/s" in text
        assert "ok" in text
