"""Tests for resources, locks, stores, and the disk/CPU models."""

import pytest

from repro.sim.core import Simulator
from repro.sim.resources import (
    CpuPool,
    DiskModel,
    Resource,
    SimLock,
    Store,
    StoreClosed,
)


class TestResource:
    def test_capacity_limits_concurrency(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        holding = [0]
        concurrent = []

        def worker():
            yield resource.acquire()
            holding[0] += 1
            concurrent.append(holding[0])
            yield sim.timeout(1.0)
            holding[0] -= 1
            resource.release()

        def main():
            yield sim.all_of([sim.process(worker()) for _ in range(6)])

        sim.run_process(main())
        assert max(concurrent) <= 2
        # 6 workers, 2 at a time, 1s each => 3 seconds.
        assert sim.now == 3.0

    def test_fifo_ordering(self):
        sim = Simulator()
        lock = SimLock(sim)
        order = []

        def worker(name):
            yield lock.acquire()
            order.append(name)
            yield sim.timeout(1.0)
            lock.release()

        def main():
            procs = []
            for i in range(4):
                procs.append(sim.process(worker(i)))
                yield sim.timeout(0.1)
            yield sim.all_of(procs)

        sim.run_process(main())
        assert order == [0, 1, 2, 3]

    def test_release_idle_raises(self):
        sim = Simulator()
        with pytest.raises(RuntimeError):
            Resource(sim, capacity=1).release()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), capacity=0)


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("item")

        def main():
            value = yield store.get()
            return value

        assert sim.run_process(main()) == "item"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)

        def producer():
            yield sim.timeout(5.0)
            store.put("late")

        def main():
            sim.process(producer())
            value = yield store.get()
            return (value, sim.now)

        assert sim.run_process(main()) == ("late", 5.0)

    def test_fifo(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(3):
            store.put(i)

        def main():
            values = []
            for _ in range(3):
                values.append((yield store.get()))
            return values

        assert sim.run_process(main()) == [0, 1, 2]

    def test_close_fails_getters(self):
        sim = Simulator()
        store = Store(sim)

        def closer():
            yield sim.timeout(1.0)
            store.close()

        def main():
            sim.process(closer())
            try:
                yield store.get()
            except StoreClosed:
                return "closed"

        assert sim.run_process(main()) == "closed"

    def test_put_on_closed_raises(self):
        sim = Simulator()
        store = Store(sim)
        store.close()
        with pytest.raises(RuntimeError):
            store.put("x")


class TestDiskModel:
    def test_commits_serialize(self):
        sim = Simulator()
        disk = DiskModel(sim, commit_latency=0.010)

        def main():
            yield sim.all_of([sim.process(disk.commit()) for _ in range(5)])
            return sim.now

        assert sim.run_process(main()) == pytest.approx(0.050)
        assert disk.commits == 5


class TestCpuPool:
    def test_parallel_execution(self):
        sim = Simulator()
        cpu = CpuPool(sim, threads=4)

        def main():
            yield sim.all_of([sim.process(cpu.execute(1.0))
                              for _ in range(8)])
            return sim.now

        assert sim.run_process(main()) == 2.0
