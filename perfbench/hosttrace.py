"""Host-time spans recorded from outside the program under test.

The program's own tracer (``repro.obs``) runs on the simulator clock and
cannot time host work, so the benchmark wraps public functions of each
layer from the outside: :meth:`HostTracer.install` replaces them on their
classes and modules, :meth:`HostTracer.uninstall` puts the originals back.

Only synchronous work is timed by a plain wrapper. A generator function
does its work when the simulator resumes it, so :meth:`HostTracer.wrap`
drives it through :meth:`HostTracer._resumes` instead, which opens one
span per resume. Every resume runs to its next ``yield`` without
interruption, so the host call stack nests spans correctly even when
simulated processes interleave.

Spans are kept in memory (four parallel arrays) and reduced when the run
ends: a span's *self time* is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: ``on_call(counts, args, result)`` adds work counts for one call.
CountHook = Callable[[Counter, tuple, Any], None]


class HostTracer:
    """Wraps layer entry points and records one span per call."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self._targets: List[Tuple[Any, str, str, Optional[CountHook],
                                  Optional[Callable[[tuple], str]]]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- declaring what to wrap ------------------------------------------

    def add(self, owner: Any, attr: str, name: str,
            on_call: Optional[CountHook] = None,
            name_of: Optional[Callable[[tuple], str]] = None) -> None:
        """Trace ``owner.attr`` (a class attribute or module function).

        ``name`` is ``<layer>:<function>``; ``name_of(args)`` may refine
        it per call (for example with the request route).
        """
        self._targets.append((owner, attr, name, on_call, name_of))

    def install(self) -> None:
        for owner, attr, name, on_call, name_of in self._targets:
            if inspect.isclass(owner):
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self.wrap(raw.__func__, name, on_call,
                                              name_of))
                else:
                    new = self.wrap(raw, name, on_call, name_of)
                setattr(owner, attr, new)
                self._patches.append((owner, attr, raw))
            else:
                # A module function: rebind it in every program module
                # that imported it by name.
                original = getattr(owner, attr)
                wrapper = self.wrap(original, name, on_call, name_of)
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", None)
                    if (namespace is None or not getattr(
                            module, "__name__", "").startswith("repro")):
                        continue
                    for key, value in list(namespace.items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrap(self, func: Callable, name: str,
             on_call: Optional[CountHook] = None,
             name_of: Optional[Callable[[tuple], str]] = None) -> Callable:
        fixed = self._id(name)
        stack, key, parent = self._stack, self.key, self.parent
        start, end, counts = self.start, self.end, self.counts

        if inspect.isgeneratorfunction(func):
            def generator_wrapper(*args, **kwargs):
                counts[name + ".calls"] += 1
                return self._resumes(fixed, func(*args, **kwargs))
            return generator_wrapper

        def wrapper(*args, **kwargs):
            index = len(start)
            key.append(self._id(name_of(args)) if name_of else fixed)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if on_call is not None:
                on_call(counts, args, result)
            return result

        return wrapper

    def _resumes(self, ident: int, generator):
        """Drive ``generator``, timing each resume as one span."""
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            index = len(self.start)
            self.key.append(ident)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(perf_counter())
            try:
                if error is None:
                    target = generator.send(value)
                else:
                    target = generator.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.end[index] = perf_counter()
                self._stack.pop()
            try:
                value, error = (yield target), None
            except BaseException as exc:  # re-thrown into the generator
                value, error = None, exc

    # -- reduction -----------------------------------------------------

    def reduce(self) -> "SpanTotals":
        """Per-name totals: span time, self time, span count, durations."""
        count = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(count)]
        children = [0.0] * count
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                children[parent] += durations[i]
        totals = SpanTotals(self.names)
        for i in range(count):
            ident = self.key[i]
            totals.total[ident] += durations[i]
            totals.self_time[ident] += durations[i] - children[i]
            totals.calls[ident] += 1
            totals.durations[ident].append(durations[i])
            if self.parent[i] < 0:
                totals.root_time += durations[i]
        return totals


class SpanTotals:
    """Totals per span name, with lookups by layer prefix."""

    def __init__(self, names: List[str]) -> None:
        self.names = names
        self.total: Dict[int, float] = defaultdict(float)
        self.self_time: Dict[int, float] = defaultdict(float)
        self.calls: Dict[int, int] = defaultdict(int)
        self.durations: Dict[int, List[float]] = defaultdict(list)
        self.root_time = 0.0

    # ``name`` selects a span name or, as a prefix, a whole layer.
    def _select(self, prefix: str) -> List[int]:
        return [ident for ident, name in enumerate(self.names)
                if name == prefix or name.startswith(prefix + ":")]

    def self_of(self, name: str) -> float:
        return sum(self.self_time[i] for i in self._select(name))

    def total_of(self, name: str) -> float:
        return sum(self.total[i] for i in self._select(name))

    def calls_of(self, name: str) -> int:
        return sum(self.calls[i] for i in self._select(name))

    def durations_of(self, name: str) -> List[float]:
        found: List[float] = []
        for ident in self._select(name):
            found.extend(self.durations[ident])
        return found
