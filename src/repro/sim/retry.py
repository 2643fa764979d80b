"""Capped exponential backoff with deterministic jitter.

Before this layer existed, every networked path in the reproduction sent
once and waited forever — an injected fault deadlocked the simulation
instead of exercising a recovery path. :class:`RetryPolicy` is the one
reusable answer: a frozen description of *how hard to try* that turns a
fallible simulation process into a bounded-recovery process.

Callers compose it where the fault is expected —
``RetryPolicy(...).call(simulator, lambda: op(...), rng.fork(...),
telemetry=..., operation=...)`` — rather than through ``*_with_retry``
twins or ``retry_policy`` knobs (palint rule ``SRC109``).

Design points:

- **Deterministic jitter** — the jitter multiplier draws from a
  :class:`~repro.crypto.primitives.DeterministicRandom` supplied by the
  caller, so two runs with the same seed back off identically and the
  recovery summary is byte-identical.
- **Per-attempt timeout** — each attempt is wrapped in
  :meth:`Simulator.with_timeout`, so a dropped message fails the attempt
  with :class:`DeadlineExceededError` instead of hanging; the abandoned
  attempt process is interrupted so it can let go of what it waits for
  (see :meth:`repro.sim.core.Simulator.with_timeout`).
- **Typed retryability** — only ``DEFAULT_RETRYABLE`` faults are retried;
  anything else (an :class:`AccessDeniedError`, a rollback detection) is
  a *verdict*, not a fault, and propagates immediately.
- **Telemetry** — every retry and giveup lands in
  ``palaemon_retries_total`` (labels ``operation``/``outcome``) and
  giveups append a ``retry.giveup`` audit record before raising
  :class:`RetryExhaustedError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Tuple, Type

from repro.crypto.primitives import DeterministicRandom
from repro.errors import (
    CounterUnavailableError,
    DeadlineExceededError,
    NetworkError,
    RetryExhaustedError,
    StorageFaultError,
)
from repro.sim.core import Event, Simulator

#: Exception types that signal a transient fault worth retrying. Security
#: verdicts (attestation failures, access denials, rollback detections)
#: are deliberately absent: retrying those would be wrong, not slow.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    DeadlineExceededError,
    CounterUnavailableError,
    StorageFaultError,
    NetworkError,
)

#: Each retry waits this many times longer than the one before ...
BACKOFF_MULTIPLIER = 2.0
#: ... up to this many seconds ...
MAX_BACKOFF_SECONDS = 2.0
#: ... scaled by a deterministic jitter in ``[1, 1 + JITTER_FRACTION)``.
JITTER_FRACTION = 0.1


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try: attempts, backoff shape, and per-attempt deadline.

    The delay before attempt ``n+1`` is
    ``min(base_delay * BACKOFF_MULTIPLIER**n, MAX_BACKOFF_SECONDS)`` scaled
    by a deterministic jitter in ``[1, 1 + JITTER_FRACTION)``.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    attempt_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be non-negative")

    def backoff_delay(self, attempt: int, rng: DeterministicRandom) -> float:
        """Delay after failed attempt number ``attempt`` (0-based)."""
        delay = min(self.base_delay * BACKOFF_MULTIPLIER ** attempt,
                    MAX_BACKOFF_SECONDS)
        return delay * (1.0 + JITTER_FRACTION * rng.random())

    def call(self, simulator: Simulator,
             attempt_factory: Callable[[], Generator[Event, Any, Any]],
             rng: DeterministicRandom, *, telemetry,
             operation: str = "operation",
             ) -> Generator[Event, Any, Any]:
        """Run ``attempt_factory()`` as a process until one attempt wins.

        ``attempt_factory`` must return a *fresh* generator per call —
        a generator can only run once, and every retry is a new attempt.
        Raises :class:`RetryExhaustedError` (chaining the last failure)
        when the budget runs out.
        """
        last_error: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            if attempt:
                yield simulator.timeout(self.backoff_delay(attempt - 1, rng))
            target: Event = simulator.process(
                attempt_factory(), name=f"{operation}#{attempt + 1}")
            if self.attempt_timeout is not None:
                target = simulator.with_timeout(target, self.attempt_timeout)
            try:
                value = yield target
            except DEFAULT_RETRYABLE as exc:
                last_error = exc
                telemetry.inc("palaemon_retries_total", operation=operation,
                              outcome="retry")
                continue
            if attempt:
                telemetry.inc("palaemon_retries_total", operation=operation,
                              outcome="recovered")
            return value
        telemetry.inc("palaemon_retries_total", operation=operation,
                      outcome="giveup")
        telemetry.audit(
            "retry.giveup", operation=operation, attempts=self.max_attempts,
            error=type(last_error).__name__ if last_error else "unknown")
        raise RetryExhaustedError(
            f"{operation!r} failed after {self.max_attempts} attempts: "
            f"{last_error}", attempts=self.max_attempts,
            last_error=last_error) from last_error
