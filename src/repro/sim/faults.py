"""Deterministic fault injection: the chaos harness's ground truth.

The paper's stance is *crash-as-attack* (§IV-D): PALAEMON trades
availability for freshness and defers availability to fail-over and
federation. Exercising those recovery paths honestly requires injecting
partial failure — dropped and duplicated messages, endpoint blackouts,
failed volume writes, counter-service outages — and observing *bounded*
recovery rather than a deadlocked simulation.

A :class:`FaultPlan` is a declarative, seed-driven schedule of faults:

- **link faults** — per-link message drop/duplication/extra delay,
  consulted by :meth:`repro.sim.network.Network.deliver`;
- **endpoint blackouts** — windows during which a named endpoint neither
  sends nor receives (a crashed or wedged front-end);
- **counter outages** — windows during which a named counter service
  raises :class:`~repro.errors.CounterUnavailableError`;
- **block-store faults** — windows during which a named
  :class:`~repro.fs.blockstore.BlockStore` fails reads or writes.

Every windowed fault lives in one table keyed by ``(kind, name)``, and
one query, :meth:`FaultPlan.injects`, answers it and counts the
injection. Components hold the plan in a ``fault_plan`` attribute set by
:meth:`FaultPlan.attach` and ask that query under their own name.

Determinism: all probabilistic decisions draw from one
:class:`~repro.crypto.primitives.DeterministicRandom` forked off the
plan's seed, and all windows are in virtual time, so the same seed and
the same event order produce the same faults — byte-identical recovery
summaries across runs (``tests/test_chaos_recovery.py`` asserts exactly
this). Every injected fault is counted in :attr:`FaultPlan.injected`
and in the plan's telemetry domain, as the
``palaemon_faults_injected_total`` metric by ``kind``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.crypto.primitives import DeterministicRandom
from repro.sim.core import Simulator


@dataclass(frozen=True)
class Window:
    """A half-open interval of virtual time [start, end)."""

    start: float = 0.0
    end: float = math.inf

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class LinkFault:
    """A fault on the (undirected) link between two endpoints."""

    a: str
    b: str
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    extra_delay: float = 0.0
    window: Window = Window()

    def matches(self, source: str, destination: str) -> bool:
        return {source, destination} == {self.a, self.b}


class FaultPlan:
    """A seeded, declarative schedule of faults for one simulation run."""

    def __init__(self, simulator: Simulator, telemetry,
                 seed: bytes = b"fault-plan") -> None:
        self.simulator = simulator
        self._rng = DeterministicRandom(b"fault-plan:" + seed)
        self.telemetry = telemetry
        self._link_faults: List[LinkFault] = []
        #: Windowed faults by (kind, component name); see :meth:`injects`.
        self._windows: Dict[Tuple[str, str], List[Window]] = {}
        #: Injected fault counts by kind (drop/duplicate/delay/blackout/
        #: counter_outage/store_fault) — the chaos summary.
        self.injected: Dict[str, int] = {}

    # -- authoring ---------------------------------------------------------

    def _add_link_fault(self, **fields) -> "FaultPlan":
        self._link_faults.append(LinkFault(**fields))
        return self

    def _add_window(self, kind: str, name: str, start: float,
                    end: float) -> "FaultPlan":
        self._windows.setdefault((kind, name), []).append(Window(start, end))
        return self

    def drop_link(self, a: str, b: str, start: float = 0.0,
                  end: float = math.inf,
                  probability: float = 1.0) -> "FaultPlan":
        """Drop traffic between ``a`` and ``b`` during the window."""
        return self._add_link_fault(a=a, b=b, drop_probability=probability,
                                    window=Window(start, end))

    def duplicate_link(self, a: str, b: str, probability: float,
                       start: float = 0.0,
                       end: float = math.inf) -> "FaultPlan":
        """Deliver some messages twice (retransmission storms)."""
        return self._add_link_fault(a=a, b=b,
                                    duplicate_probability=probability,
                                    window=Window(start, end))

    def delay_link(self, a: str, b: str, extra_delay: float,
                   start: float = 0.0,
                   end: float = math.inf) -> "FaultPlan":
        """Add fixed extra one-way delay on a link (congestion)."""
        return self._add_link_fault(a=a, b=b, extra_delay=extra_delay,
                                    window=Window(start, end))

    def blackout_endpoint(self, name: str, start: float = 0.0,
                          end: float = math.inf) -> "FaultPlan":
        """The endpoint neither sends nor receives during the window."""
        return self._add_window("blackout", name, start, end)

    def counter_outage(self, service_name: str, start: float = 0.0,
                       end: float = math.inf) -> "FaultPlan":
        """The named counter service is unreachable during the window."""
        return self._add_window("counter_outage", service_name, start, end)

    def fail_store(self, store_name: str, operation: str = "write",
                   start: float = 0.0, end: float = math.inf) -> "FaultPlan":
        """The named block store fails ``operation`` (read/write); the
        store asks under the name ``"{store_name}:{operation}"``."""
        if operation not in ("read", "write"):
            raise ValueError(f"unknown store operation {operation!r}")
        return self._add_window("store_fault", f"{store_name}:{operation}",
                                start, end)

    # -- attachment --------------------------------------------------------

    def attach(self, *components) -> "FaultPlan":
        """Make each component (a :class:`Network`, counter service or
        ``BlockStore``) consult this plan."""
        for component in components:
            component.fault_plan = self
        return self

    # -- queries (called by instrumented components) -----------------------

    def injects(self, kind: str, name: str) -> bool:
        """Whether a ``kind`` window on component ``name`` is open now;
        an open window counts as one injected ``kind`` fault."""
        windows = self._windows.get((kind, name))
        if not windows:
            return False
        now = self.simulator.now
        if any(window.active(now) for window in windows):
            self._record(kind)
            return True
        return False

    def message_fate(self, source: str,
                     destination: str) -> Tuple[str, float]:
        """Decide what happens to one message: a (fate, extra_delay) pair.

        Fate is ``"deliver"``, ``"drop"``, or ``"duplicate"``; the extra
        delay applies to whatever is delivered. Blackouts are checked
        first: a blacked-out sender or receiver drops unconditionally.
        """
        if (self.injects("blackout", source)
                or self.injects("blackout", destination)):
            return "drop", 0.0
        now = self.simulator.now
        fate = "deliver"
        extra_delay = 0.0
        for fault in self._link_faults:
            if not fault.matches(source, destination):
                continue
            if not fault.window.active(now):
                continue
            if (fault.drop_probability > 0.0
                    and self._rng.random() < fault.drop_probability):
                self._record("drop")
                return "drop", 0.0
            if (fault.duplicate_probability > 0.0
                    and self._rng.random() < fault.duplicate_probability):
                self._record("duplicate")
                fate = "duplicate"
            if fault.extra_delay > 0.0:
                self._record("delay")
                extra_delay += fault.extra_delay
        return fate, extra_delay

    # -- accounting --------------------------------------------------------

    def _record(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        self.telemetry.inc("palaemon_faults_injected_total", kind=kind)

    def summary(self) -> Dict[str, int]:
        """Injected fault counts by kind, sorted for stable rendering."""
        return dict(sorted(self.injected.items()))
