"""Tracing spans on the simulator clock.

A :class:`Span` is one timed operation (a policy create, a board round, a
TLS handshake); spans nest via an explicit stack, so a board round started
while serving ``policy.create`` becomes its child. All timestamps come
from the clock the :class:`Tracer` was constructed with — in practice
``Simulator.now`` — never from the wall clock, so two runs with the same
seed produce byte-identical traces and a recorded trace can be replayed
and diffed.

Span ids are sequence numbers assigned at start, which keeps them
deterministic as well.

A long-running service finishes spans without end, so the tracer keeps
only the newest :data:`MAX_FINISHED_SPANS` of them in a bounded ring;
span ids keep counting, so a gap shows what went.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

#: Finished spans a tracer keeps.
MAX_FINISHED_SPANS = 1024


@dataclass
class Span:
    """One traced operation: name, interval, attributes."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    attributes: Dict[str, str] = field(default_factory=dict)
    end: Optional[float] = None


class _SpanHandle:
    """Context manager binding one span to a tracer's stack."""

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc is not None:
            self.span.attributes.setdefault("error", type(exc).__name__)
        self._tracer.finish(self.span)


class Tracer:
    """Creates, nests, and retains spans against an injected clock.

    ``finished`` holds the newest finished spans in finish order, at most
    :data:`MAX_FINISHED_SPANS` of them.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._next_id = 1
        self._stack: List[Span] = []
        self.finished: Deque[Span] = deque(maxlen=MAX_FINISHED_SPANS)

    @property
    def now(self) -> float:
        return self._clock()

    def span(self, name: str, **attributes: str) -> _SpanHandle:
        """Start a child of the innermost open span (or a root span)."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            span_id=self._next_id, parent_id=parent, name=name,
            start=self.now,
            attributes={str(k): str(v) for k, v in attributes.items()})
        self._next_id += 1
        self._stack.append(span)
        return _SpanHandle(self, span)

    def finish(self, span: Span) -> None:
        if span.end is not None:
            return
        span.end = self.now
        # Unwind to (and including) the span; handles mismatched exits.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self.finished.append(span)
