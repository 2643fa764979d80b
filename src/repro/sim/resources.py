"""Queueing primitives: resources and stores.

A :class:`Resource` models every contended device: CPU thread pools, the
SGX driver's global EPC lock, the policy database's disk (capacity one),
approval and app-server workers. A :class:`Store` is a mailbox. Queueing
discipline is FIFO, which is what makes the throughput/latency hockey-stick
curves in the paper's figures emerge naturally under open-loop load.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from repro.sim.core import Event, Simulator


class Resource:
    """A counted resource with FIFO waiting (like a thread pool).

    A request that only occupies a slot for a calibrated time runs
    ``yield from resource.hold(seconds)``; one that works inside the slot
    yields the grant of :meth:`acquire` inside a ``try`` and hands it to
    :meth:`give_back` in the ``finally``.
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

    def acquire(self) -> Event:
        """Return an event that fires when a slot is granted."""
        grant = self.simulator.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed(self)
        else:
            self._waiters.append(grant)
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

    def give_back(self, grant: Event) -> None:
        """End the request ``grant`` came from, however it ended.

        A granted slot is released. A request still queued (an interrupt,
        such as a :meth:`Simulator.with_timeout` deadline, reached its
        process before the grant) is withdrawn, so the slot is never
        granted to a process that has stopped waiting for it.
        """
        if grant.triggered:
            self.release()
        else:
            self._waiters.remove(grant)

    def hold(self, seconds: float) -> Generator[Event, Any, None]:
        """Occupy one slot for ``seconds`` of virtual time."""
        grant = self.acquire()
        try:
            yield grant
            yield self.simulator.timeout(seconds)
        finally:
            self.give_back(grant)


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

        A getter whose owner has gone would otherwise consume the next
        item put into the store; a closed TLS connection withdraws its
        reader's getter this way, so the endpoint's next connection reads
        every record. Returns True if the event was still queued.
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
