"""Tests for metrics and workload generators."""

import pytest

from repro.crypto.primitives import DeterministicRandom
from repro.sim.core import Simulator
from repro.sim.metrics import (
    LatencyRecorder,
    ThroughputLatencyPoint,
    ThroughputMeter,
    find_knee,
    percentile,
)
from repro.sim.resources import Resource
from repro.sim.workload import run_closed_loop, run_open_loop


class TestPercentile:
    def test_median_odd(self):
        assert percentile([1, 2, 3], 0.5) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 0.25) == 2.5

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0.0) == 1
        assert percentile(data, 1.0) == 9

    def test_single_sample(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestLatencyRecorder:
    def test_summary(self):
        recorder = LatencyRecorder()
        for value in (0.01, 0.02, 0.03):
            recorder.record(value)
        summary = recorder.summary()
        assert summary.count == 3
        assert summary.mean == pytest.approx(0.02)
        assert summary.minimum == 0.01
        assert summary.maximum == 0.03

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-0.1)

    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().summary()


class TestThroughputMeter:
    def test_rate(self):
        meter = ThroughputMeter()
        for t in (0.0, 1.0, 2.0, 3.0, 4.0):
            meter.record(t)
        assert meter.rate() == pytest.approx(5 / 4.0)

    def test_empty_rate_zero(self):
        assert ThroughputMeter().rate() == 0.0


class TestFindKnee:
    def make_point(self, rate, mean_latency):
        recorder = LatencyRecorder()
        recorder.record(mean_latency)
        return ThroughputLatencyPoint(offered_rate=rate, achieved_rate=rate,
                                      latency=recorder.summary())

    def test_knee_found(self):
        points = [self.make_point(10, 0.001), self.make_point(100, 0.002),
                  self.make_point(200, 0.050), self.make_point(400, 5.0)]
        assert find_knee(points, latency_limit=0.1) == 200

    def test_no_point_under_limit(self):
        points = [self.make_point(10, 1.0)]
        assert find_knee(points, latency_limit=0.1) == 0.0


class FixedServer:
    """A server with one thread and a fixed service time."""

    def __init__(self, sim, service_time):
        self.sim = sim
        self.resource = Resource(sim, capacity=1)
        self.service_time = service_time

    def handle(self, _request_id):
        yield self.resource.acquire()
        try:
            yield self.sim.timeout(self.service_time)
        finally:
            self.resource.release()


class TestOpenLoop:
    def test_underload_latency_near_service_time(self):
        sim = Simulator()
        server = FixedServer(sim, service_time=0.001)
        point = run_open_loop(sim, rate=50.0, factory=server.handle,
                              rng=DeterministicRandom(b"ol"), duration=10.0)
        # 50 req/s against a 1000 req/s server: almost no queueing.
        assert point.latency.mean < 0.002
        assert point.achieved_rate == pytest.approx(50.0, rel=0.2)

    def test_overload_latency_spikes(self):
        sim = Simulator()
        server = FixedServer(sim, service_time=0.01)  # capacity 100/s
        point = run_open_loop(sim, rate=200.0, factory=server.handle,
                              rng=DeterministicRandom(b"ol2"), duration=5.0)
        # Offered 2x capacity: latency far above service time, throughput
        # pinned near capacity.
        assert point.latency.mean > 0.1
        assert point.achieved_rate <= 110.0

    def test_invalid_rate(self):
        sim = Simulator()
        server = FixedServer(sim, 0.001)
        with pytest.raises(ValueError):
            run_open_loop(sim, rate=0.0, factory=server.handle,
                          rng=DeterministicRandom(b"x"), duration=1.0)


class TestClosedLoop:
    def test_throughput_bounded_by_server(self):
        sim = Simulator()
        server = FixedServer(sim, service_time=0.01)
        point = run_closed_loop(sim, concurrency=8, factory=server.handle,
                                duration=5.0)
        assert point.achieved_rate == pytest.approx(100.0, rel=0.05)

    def test_single_client_latency_is_service_time(self):
        sim = Simulator()
        server = FixedServer(sim, service_time=0.02)
        point = run_closed_loop(sim, concurrency=1, factory=server.handle,
                                duration=2.0)
        assert point.latency.mean == pytest.approx(0.02)

    def test_invalid_concurrency(self):
        sim = Simulator()
        server = FixedServer(sim, 0.001)
        with pytest.raises(ValueError):
            run_closed_loop(sim, concurrency=0, factory=server.handle,
                            duration=1.0)

