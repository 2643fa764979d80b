"""Queueing primitives: resources, locks, and stores.

These model contended hardware and software: CPU thread pools, the SGX
driver's global EPC lock, disk commit queues, and mailboxes. Queueing
discipline is FIFO, which is what makes the throughput/latency hockey-stick
curves in the paper's figures emerge naturally under open-loop load.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from repro.errors import StorageFaultError
from repro.sim.core import Event, Simulator


class Resource:
    """A counted resource with FIFO waiting (like a thread pool).

    Usage inside a process::

        grant = yield resource.acquire()
        try:
            yield simulator.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, simulator: Simulator, capacity: int,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.simulator = simulator
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        self._peak_queue_length = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def peak_queue_length(self) -> int:
        return self._peak_queue_length

    def acquire(self) -> Event:
        """Return an event that fires when a slot is granted."""
        grant = self.simulator.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed(self)
        else:
            self._waiters.append(grant)
            self._peak_queue_length = max(self._peak_queue_length,
                                          len(self._waiters))
        return grant

    def release(self) -> None:
        """Release a slot; the oldest waiter (if any) is granted next."""
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1

    def use(self, duration: float) -> Generator[Event, Any, None]:
        """A sub-process that acquires, holds for ``duration``, releases."""
        yield self.acquire()
        try:
            yield self.simulator.timeout(duration)
        finally:
            self.release()


class SimLock(Resource):
    """A mutex: a resource with capacity one.

    Models e.g. the SGX driver's global EPC allocation lock that serializes
    enclave startups (Fig 9's "SGX w/o" bottleneck).
    """

    def __init__(self, simulator: Simulator, name: str = "lock") -> None:
        super().__init__(simulator, capacity=1, name=name)


class Store:
    """An unbounded FIFO mailbox of items (message queue).

    ``get`` returns an event that fires with the oldest item once one is
    available; ``put`` never blocks.
    """

    def __init__(self, simulator: Simulator, name: str = "store") -> None:
        self.simulator = simulator
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._closed:
            raise RuntimeError(f"put on closed store {self.name!r}")
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = self.simulator.event()
        if self._items:
            event.succeed(self._items.popleft())
        elif self._closed:
            event.fail(StoreClosed(self.name))
        else:
            self._getters.append(event)
        return event

    def cancel(self, event: Event) -> bool:
        """Withdraw a pending ``get`` event from the waiter queue.

        A getter abandoned by a timed-out caller would otherwise consume
        the next item put into the store — stealing the message a retry
        is waiting for. Returns True if the event was still queued.
        """
        try:
            self._getters.remove(event)
        except ValueError:
            return False
        return True

    def close(self) -> None:
        """Close the store; pending and future getters fail."""
        self._closed = True
        while self._getters:
            self._getters.popleft().fail(StoreClosed(self.name))


class StoreClosed(Exception):
    """Raised into getters of a closed :class:`Store`."""

    def __init__(self, name: str) -> None:
        super().__init__(f"store {name!r} closed")
        self.store_name = name


class DiskModel:
    """A single-spindle disk: serialized commits with fixed latency.

    PALAEMON's policy database commits to disk on every tag *update* but not
    on reads — the source of the ~6x read/update latency gap in Fig 11.
    """

    def __init__(self, simulator: Simulator, commit_latency: float,
                 name: str = "disk") -> None:
        self.simulator = simulator
        self.commit_latency = commit_latency
        self.name = name
        self._queue = SimLock(simulator, name=f"{name}-queue")
        self.commits = 0
        self.failed_commits = 0
        #: Optional fault injection (:class:`repro.sim.faults.FaultPlan`);
        #: attached via ``FaultPlan.attach``, never set on hot paths.
        self.fault_plan = None

    def commit(self) -> Generator[Event, Any, None]:
        """A sub-process performing one durable commit.

        With a fault plan attached, a commit falling in a scheduled disk
        fault window still pays the latency (the drive spun, the write
        failed) and then raises :class:`StorageFaultError`.
        """
        yield self._queue.acquire()
        try:
            yield self.simulator.timeout(self.commit_latency)
            if (self.fault_plan is not None
                    and self.fault_plan.injects("disk_fault", self.name)):
                self.failed_commits += 1
                raise StorageFaultError(
                    f"disk {self.name!r}: injected commit failure")
            self.commits += 1
        finally:
            self._queue.release()


class CpuPool(Resource):
    """A pool of hyper-threads; ``execute`` runs a CPU burst on one."""

    def __init__(self, simulator: Simulator, threads: int,
                 name: str = "cpu") -> None:
        super().__init__(simulator, capacity=threads, name=name)
        self.busy_seconds = 0.0

    def execute(self, cpu_seconds: float) -> Generator[Event, Any, None]:
        """Consume ``cpu_seconds`` of one hyper-thread."""
        yield self.acquire()
        try:
            yield self.simulator.timeout(cpu_seconds)
            self.busy_seconds += cpu_seconds
        finally:
            self.release()

    def utilization(self, elapsed: float) -> float:
        """Average utilization over ``elapsed`` seconds of virtual time."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (elapsed * self.capacity))
