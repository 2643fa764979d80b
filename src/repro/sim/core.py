"""Event loop and generator-based processes.

A tiny SimPy-like kernel:

- :class:`Simulator` owns a virtual clock and a priority queue of events.
- :class:`Event` is a one-shot occurrence that processes can wait on.
- :class:`Process` wraps a generator; each ``yield``-ed event suspends the
  process until that event fires, and the yielded event's value is sent back
  into the generator.

Determinism: events scheduled at the same timestamp fire in scheduling order
(a monotonically increasing sequence number breaks ties), so identical seeds
give identical traces.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import DeadlineExceededError, SimTimeError, SimulationError


class Event:
    """A one-shot occurrence processes can wait on.

    An event moves through three states: pending -> triggered (scheduled on
    the event queue with a value) -> processed (callbacks run). Waiting on an
    already-processed event resumes the waiter immediately.
    """

    __slots__ = ("simulator", "callbacks", "_value", "_failure", "triggered",
                 "processed")

    def __init__(self, simulator: "Simulator") -> None:
        self.simulator = simulator
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._failure: Optional[BaseException] = None
        self.triggered = False
        self.processed = False

    @property
    def value(self) -> Any:
        return self._value

    @property
    def failed(self) -> bool:
        return self._failure is not None

    @property
    def failure(self) -> Optional[BaseException]:
        return self._failure

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._value = value
        self.simulator._enqueue(self.simulator.now, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as a failure; waiters see the exception raised."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._failure = exception
        self.simulator._enqueue(self.simulator.now, self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` seconds of virtual time in the future."""

    __slots__ = ()

    def __init__(self, simulator: "Simulator", delay: float,
                 value: Any = None) -> None:
        if delay < 0:
            raise SimTimeError(f"negative timeout delay: {delay}")
        super().__init__(simulator)
        self.triggered = True
        self._value = value
        simulator._enqueue(simulator.now + delay, self)


class Process(Event):
    """A running generator process; itself an event that fires on return.

    The process's return value (via ``return`` in the generator) becomes the
    event value, so processes can wait on each other. An uncaught exception
    in the generator fails the process event; if nothing is waiting, the
    exception propagates out of :meth:`Simulator.run` to avoid silent loss.
    """

    __slots__ = ("name", "_generator")

    def __init__(self, simulator: "Simulator",
                 generator: Generator[Event, Any, Any],
                 name: str = "process") -> None:
        super().__init__(simulator)
        self.name = name
        self._generator = generator
        # Bootstrap: resume the generator at the current simulation time.
        bootstrap = Event(simulator)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _resume(self, event: Event) -> None:
        try:
            if event.failed:
                target = self._generator.throw(event.failure)
            else:
                target = self._generator.send(event.value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - deliberately broad
            if not self.triggered:
                self.fail(exc)
                self.simulator._note_process_failure(self, exc)
            return
        if not isinstance(target, Event):
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}, not an Event"))
            return
        if target.processed:
            # The event already fired; resume on the next loop iteration.
            immediate = Event(self.simulator)
            immediate.callbacks.append(lambda _e: self._resume(target))
            immediate.succeed()
        else:
            target.callbacks.append(self._resume)

    def interrupt(self, reason: str = "interrupted") -> None:
        """Throw :class:`ProcessInterrupt` into the process."""
        if self.triggered:
            return
        wakeup = Event(self.simulator)
        wakeup.callbacks.append(self._resume)
        wakeup.fail(ProcessInterrupt(reason))


class ProcessInterrupt(SimulationError):
    """Raised inside a process that another process interrupted."""


class Simulator:
    """The event loop: a virtual clock plus a priority queue of events."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        self._unhandled_failures: List[Tuple[Process, BaseException]] = []

    # -- event construction helpers ------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "process") -> Process:
        """Start a generator as a process."""
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> Event:
        """An event that fires when every event in ``events`` has fired."""
        gate = self.event()
        remaining = [len(events)]
        if not events:
            gate.succeed([])
            return gate
        results: List[Any] = [None] * len(events)

        def make_callback(index: int) -> Callable[[Event], None]:
            def callback(event: Event) -> None:
                if gate.triggered:
                    return
                if event.failed:
                    gate.fail(event.failure)
                    return
                results[index] = event.value
                remaining[0] -= 1
                if remaining[0] == 0:
                    gate.succeed(list(results))
            return callback

        for index, event in enumerate(events):
            if event.processed:
                if event.failed:
                    gate.fail(event.failure)
                    break
                results[index] = event.value
                remaining[0] -= 1
            else:
                event.callbacks.append(make_callback(index))
        if not gate.triggered and remaining[0] == 0:
            gate.succeed(list(results))
        return gate

    def with_timeout(self, event: Event, deadline: float) -> Event:
        """An event mirroring ``event``, failed with
        :class:`DeadlineExceededError` if it has not fired within
        ``deadline`` seconds of virtual time from now.

        The inner event is not descheduled — simulation time is virtual,
        so letting it fire late is free — but a late *failure* is
        swallowed rather than crashing the loop, and if the inner event
        is an unfinished :class:`Process` it is interrupted so it can
        release resources (cancel mailbox getters, run ``finally``
        blocks) instead of consuming messages meant for a retry.
        """
        if deadline < 0:
            raise SimTimeError(f"negative timeout deadline: {deadline}")
        gate = self.event()

        def on_event(inner: Event) -> None:
            if gate.triggered:
                return
            if inner.failed:
                gate.fail(inner.failure)
            else:
                gate.succeed(inner.value)

        def on_timer(_timer: Event) -> None:
            if gate.triggered:
                return
            gate.fail(DeadlineExceededError(
                f"event did not fire within {deadline}s"))
            if isinstance(event, Process) and not event.triggered:
                event.interrupt(f"deadline of {deadline}s exceeded")

        if event.processed:
            on_event(event)
        else:
            event.callbacks.append(on_event)
        self.timeout(deadline).callbacks.append(on_timer)
        return gate

    # -- scheduling internals -------------------------------------------

    def _enqueue(self, at: float, event: Event) -> None:
        if at < self.now:
            raise SimTimeError(f"event scheduled in the past: {at} < {self.now}")
        heapq.heappush(self._queue, (at, self._sequence, event))
        self._sequence += 1

    def _note_process_failure(self, process: Process,
                              exc: BaseException) -> None:
        self._unhandled_failures.append((process, exc))

    # -- running ----------------------------------------------------------

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        if not self._queue:
            return False
        at, _seq, event = heapq.heappop(self._queue)
        self.now = at
        event.processed = True
        callbacks, event.callbacks = event.callbacks, []
        had_waiter = bool(callbacks)
        for callback in callbacks:
            callback(event)
        if isinstance(event, Process) and event.failed and not had_waiter:
            # Surface process crashes nobody was waiting for.
            raise event.failure
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``."""
        if until is not None and until < self.now:
            raise SimTimeError(f"cannot run backwards to {until}")
        while self._queue:
            at = self._queue[0][0]
            if until is not None and at > until:
                self.now = until
                return
            if not self.step():
                break
        if until is not None:
            self.now = max(self.now, until)

    def run_process(self, generator: Generator[Event, Any, Any],
                    name: str = "main") -> Any:
        """Run ``generator`` as a process to completion; return its value."""
        process = self.process(generator, name=name)
        self.run()
        if not process.processed:
            raise SimulationError(
                f"process {name!r} did not finish (deadlock?)")
        if process.failed:
            raise process.failure
        return process.value
