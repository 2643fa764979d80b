"""Tests for resources, holds and stores."""

import pytest

from repro.errors import DeadlineExceededError
from repro.sim.core import Simulator
from repro.sim.resources import Resource, Store, StoreClosed


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
        lock = Resource(sim, capacity=1)
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


class TestHold:
    def test_parallel_holds_fill_the_capacity(self):
        sim = Simulator()
        cpu = Resource(sim, capacity=4)

        def main():
            yield sim.all_of([sim.process(cpu.hold(1.0)) for _ in range(8)])
            return sim.now

        assert sim.run_process(main()) == 2.0

    def test_holds_are_granted_in_arrival_order(self):
        sim = Simulator()
        lock = Resource(sim, capacity=1)
        finished = []

        def holder(name):
            yield from lock.hold(1.0)
            finished.append((name, sim.now))

        def main():
            procs = []
            for name in range(3):
                procs.append(sim.process(holder(name)))
                yield sim.timeout(0.1)
            yield sim.all_of(procs)

        sim.run_process(main())
        assert finished == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_interrupted_holder_frees_its_slot(self):
        """A deadline that interrupts a hold mid-way releases the slot, so
        the next waiter starts at the deadline, not when the hold would
        have ended."""
        sim = Simulator()
        lock = Resource(sim, capacity=1)

        def main():
            slow = sim.with_timeout(sim.process(lock.hold(10.0)), 1.0)
            waiter = sim.process(lock.hold(0.5))
            with pytest.raises(DeadlineExceededError):
                yield slow
            yield waiter
            return sim.now

        assert sim.run_process(main()) == 1.5

    def test_interrupted_waiter_leaves_the_queue(self):
        """A hold whose deadline passes while it still queues withdraws its
        request: the slot goes to the next waiter, not to nobody."""
        sim = Simulator()
        lock = Resource(sim, capacity=1)

        def main():
            first = sim.process(lock.hold(2.0))
            impatient = sim.with_timeout(sim.process(lock.hold(5.0)), 1.0)
            last = sim.process(lock.hold(1.0))
            with pytest.raises(DeadlineExceededError):
                yield impatient
            yield sim.all_of([first, last])
            return sim.now

        assert sim.run_process(main()) == 3.0
        assert lock.acquire().triggered  # the slot is free again


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
