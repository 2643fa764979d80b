"""Tests for the discrete-event simulation kernel."""

import gc
import weakref

import pytest

from repro.errors import SimTimeError, SimulationError
from repro.sim.core import ProcessInterrupt, Simulator


class TestTimeouts:
    def test_clock_advances_to_timeout(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(5.0)
            return sim.now

        assert sim.run_process(proc()) == 5.0

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            yield sim.timeout(3.0)
            return sim.now

        assert sim.run_process(proc()) == 6.0

    def test_zero_delay_allowed(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(0.0)
            return "done"

        assert sim.run_process(proc()) == "done"

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimTimeError):
            sim.timeout(-1.0)

    def test_timeout_value_passed_back(self):
        sim = Simulator()

        def proc():
            value = yield sim.timeout(1.0, value="payload")
            return value

        assert sim.run_process(proc()) == "payload"


class TestProcesses:
    def test_processes_interleave_deterministically(self):
        sim = Simulator()
        trace = []

        def worker(name, delay):
            yield sim.timeout(delay)
            trace.append((name, sim.now))

        def main():
            a = sim.process(worker("a", 2.0))
            b = sim.process(worker("b", 1.0))
            yield sim.all_of([a, b])

        sim.run_process(main())
        assert trace == [("b", 1.0), ("a", 2.0)]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        trace = []

        def worker(name):
            yield sim.timeout(1.0)
            trace.append(name)

        def main():
            procs = [sim.process(worker(i)) for i in range(5)]
            yield sim.all_of(procs)

        sim.run_process(main())
        assert trace == [0, 1, 2, 3, 4]

    def test_process_return_value_via_wait(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            return 42

        def parent():
            result = yield sim.process(child())
            return result

        assert sim.run_process(parent()) == 42

    def test_waiting_on_finished_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            return "early"

        def parent():
            proc = sim.process(child())
            yield sim.timeout(10.0)  # child long done
            result = yield proc
            return result

        assert sim.run_process(parent()) == "early"

    def test_exception_propagates_to_waiter(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return str(exc)

        assert sim.run_process(parent()) == "boom"

    def test_unwaited_crash_surfaces(self):
        sim = Simulator()

        def crasher():
            yield sim.timeout(1.0)
            raise RuntimeError("silent crash")

        sim.process(crasher())
        with pytest.raises(RuntimeError, match="silent crash"):
            sim.run()

    def test_yield_non_event_fails_process(self):
        sim = Simulator()

        def bad():
            yield "not an event"

        with pytest.raises(SimulationError, match="not an Event"):
            sim.run_process(bad())

    def test_interrupt(self):
        sim = Simulator()

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except ProcessInterrupt:
                return "interrupted"
            return "slept"

        def main():
            proc = sim.process(sleeper())
            yield sim.timeout(1.0)
            proc.interrupt()
            result = yield proc
            return result

        assert sim.run_process(main()) == "interrupted"

    def test_caught_failures_are_not_retained(self):
        """A failure its waiter caught is gone once the waiter drops it:
        the simulator keeps no record of handled process failures."""
        sim = Simulator()
        failures = []

        class Boom(Exception):
            pass

        def fails():
            yield sim.timeout(0.1)
            raise Boom("handled")

        def main():
            for _ in range(100):
                try:
                    yield sim.process(fails())
                except Boom as exc:
                    failures.append(weakref.ref(exc))

        sim.run_process(main())
        gc.collect()
        assert len(failures) == 100
        assert [ref for ref in failures if ref() is not None] == []


class TestEvents:
    def test_manual_succeed(self):
        sim = Simulator()
        gate = sim.event()

        def opener():
            yield sim.timeout(3.0)
            gate.succeed("opened")

        def waiter():
            sim.process(opener())
            value = yield gate
            return (value, sim.now)

        assert sim.run_process(waiter()) == ("opened", 3.0)

    def test_double_trigger_rejected(self):
        sim = Simulator()
        gate = sim.event()
        gate.succeed()
        with pytest.raises(SimulationError):
            gate.succeed()

    def test_fail_raises_in_waiter(self):
        sim = Simulator()
        gate = sim.event()

        def failer():
            yield sim.timeout(1.0)
            gate.fail(KeyError("nope"))

        def waiter():
            sim.process(failer())
            try:
                yield gate
            except KeyError:
                return "caught"

        assert sim.run_process(waiter()) == "caught"

    def test_all_of_empty(self):
        sim = Simulator()

        def proc():
            results = yield sim.all_of([])
            return results

        assert sim.run_process(proc()) == []

    def test_all_of_collects_values_in_order(self):
        sim = Simulator()

        def child(value, delay):
            yield sim.timeout(delay)
            return value

        def main():
            procs = [sim.process(child("a", 3.0)),
                     sim.process(child("b", 1.0))]
            results = yield sim.all_of(procs)
            return results

        assert sim.run_process(main()) == ["a", "b"]


class TestRun:
    def test_run_until_stops_clock(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(100.0)

        sim.process(proc())
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_past_rejected(self):
        sim = Simulator()
        sim.now = 5.0
        with pytest.raises(SimTimeError):
            sim.run(until=1.0)

    def test_deadlock_detected(self):
        sim = Simulator()

        def stuck():
            yield sim.event()  # never triggered

        with pytest.raises(SimulationError, match="did not finish"):
            sim.run_process(stuck())

    def test_event_in_past_rejected(self):
        sim = Simulator()
        sim.now = 10.0
        with pytest.raises(SimTimeError):
            sim._enqueue(5.0, sim.event())
