"""Deterministic fault injection: the chaos harness's ground truth.

The paper's stance is *crash-as-attack* (§IV-D): PALAEMON trades
availability for freshness and defers availability to fail-over and
federation. Exercising those recovery paths honestly requires injecting
partial failure — dropped and duplicated messages, endpoint blackouts,
disk-commit failures, counter-service outages — and observing *bounded*
recovery rather than a deadlocked simulation.

A :class:`FaultPlan` is a declarative, seed-driven schedule of faults:

- **link faults** — per-link message drop/duplication/extra delay,
  consulted by :meth:`repro.sim.network.Network.deliver`;
- **endpoint blackouts** — windows during which a named endpoint neither
  sends nor receives (a crashed or wedged front-end);
- **disk faults** — windows during which a named
  :class:`~repro.sim.resources.DiskModel` fails commits;
- **counter outages** — windows during which a named counter service
  raises :class:`~repro.errors.CounterUnavailableError`;
- **block-store faults** — windows during which a named
  :class:`~repro.fs.blockstore.BlockStore` fails reads or writes.

Determinism: all probabilistic decisions draw from one
:class:`~repro.crypto.primitives.DeterministicRandom` forked off the
plan's seed, and all windows are in virtual time, so the same seed and
the same event order produce the same faults — byte-identical recovery
summaries across runs (``tests/test_chaos_recovery.py`` asserts exactly
this). Every injected fault is counted in :attr:`FaultPlan.injected`
and, when a telemetry domain is attached, in the
``palaemon_faults_injected_total`` metric by ``kind``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.primitives import DeterministicRandom
from repro.errors import StorageFaultError
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

    def __init__(self, simulator: Simulator, seed: bytes = b"fault-plan",
                 telemetry=None) -> None:
        self.simulator = simulator
        self._rng = DeterministicRandom(b"fault-plan:" + seed)
        if telemetry is None:
            # Imported lazily: repro.obs imports repro.sim.metrics, so a
            # module-level import here would be circular.
            from repro.obs.telemetry import NULL_TELEMETRY
            telemetry = NULL_TELEMETRY
        self.telemetry = telemetry
        self._link_faults: List[LinkFault] = []
        self._blackouts: Dict[str, List[Window]] = {}
        self._disk_faults: Dict[str, List[Window]] = {}
        self._counter_outages: Dict[str, List[Window]] = {}
        self._store_faults: Dict[Tuple[str, str], List[Window]] = {}
        #: Injected fault counts by kind (drop/duplicate/delay/blackout/
        #: disk_fault/counter_outage/store_fault) — the chaos summary.
        self.injected: Dict[str, int] = {}

    # -- authoring ---------------------------------------------------------

    def add_link_fault(self, fault: LinkFault) -> "FaultPlan":
        self._link_faults.append(fault)
        return self

    def drop_link(self, a: str, b: str, start: float = 0.0,
                  end: float = math.inf,
                  probability: float = 1.0) -> "FaultPlan":
        """Drop traffic between ``a`` and ``b`` during the window."""
        return self.add_link_fault(LinkFault(
            a=a, b=b, drop_probability=probability,
            window=Window(start, end)))

    def duplicate_link(self, a: str, b: str, probability: float,
                       start: float = 0.0,
                       end: float = math.inf) -> "FaultPlan":
        """Deliver some messages twice (retransmission storms)."""
        return self.add_link_fault(LinkFault(
            a=a, b=b, duplicate_probability=probability,
            window=Window(start, end)))

    def delay_link(self, a: str, b: str, extra_delay: float,
                   start: float = 0.0,
                   end: float = math.inf) -> "FaultPlan":
        """Add fixed extra one-way delay on a link (congestion)."""
        return self.add_link_fault(LinkFault(
            a=a, b=b, extra_delay=extra_delay, window=Window(start, end)))

    def blackout_endpoint(self, name: str, start: float = 0.0,
                          end: float = math.inf) -> "FaultPlan":
        """The endpoint neither sends nor receives during the window."""
        self._blackouts.setdefault(name, []).append(Window(start, end))
        return self

    def fail_disk(self, disk_name: str, start: float = 0.0,
                  end: float = math.inf) -> "FaultPlan":
        """Commits on the named disk fail during the window."""
        self._disk_faults.setdefault(disk_name, []).append(Window(start, end))
        return self

    def counter_outage(self, service_name: str, start: float = 0.0,
                       end: float = math.inf) -> "FaultPlan":
        """The named counter service is unreachable during the window."""
        self._counter_outages.setdefault(service_name, []).append(
            Window(start, end))
        return self

    def fail_store(self, store_name: str, operation: str = "write",
                   start: float = 0.0, end: float = math.inf) -> "FaultPlan":
        """The named block store fails ``operation`` (read/write)."""
        if operation not in ("read", "write"):
            raise ValueError(f"unknown store operation {operation!r}")
        self._store_faults.setdefault((store_name, operation), []).append(
            Window(start, end))
        return self

    # -- attachment --------------------------------------------------------

    def attach_network(self, network) -> "FaultPlan":
        """Make :meth:`Network.deliver` consult this plan."""
        network.fault_plan = self
        return self

    def attach_disk(self, disk) -> "FaultPlan":
        """Make the :class:`DiskModel` consult this plan on commits."""
        disk.fault_plan = self
        return self

    def attach_counters(self, service, name: str) -> "FaultPlan":
        """Bind a counter service to this plan under ``name``."""
        service.fault_plan = self
        service.fault_name = name
        return self

    def attach_blockstore(self, store, name: Optional[str] = None,
                          ) -> "FaultPlan":
        """Install a fault hook on a :class:`BlockStore`."""
        label = name or store.name

        def hook(operation: str, path: str) -> None:
            if self.store_faulty(label, operation):
                raise StorageFaultError(
                    f"store {label!r}: injected {operation} failure "
                    f"on {path!r}")

        store.fault_hook = hook
        return self

    # -- queries (called by instrumented components) -----------------------

    def message_fate(self, source: str,
                     destination: str) -> Tuple[str, float]:
        """Decide what happens to one message: a (fate, extra_delay) pair.

        Fate is ``"deliver"``, ``"drop"``, or ``"duplicate"``; the extra
        delay applies to whatever is delivered. Blackouts are checked
        first: a blacked-out sender or receiver drops unconditionally.
        """
        now = self.simulator.now
        if (self.endpoint_blacked_out(source, now)
                or self.endpoint_blacked_out(destination, now)):
            self._record("blackout")
            return "drop", 0.0
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

    def endpoint_blacked_out(self, name: str,
                             now: Optional[float] = None) -> bool:
        windows = self._blackouts.get(name)
        if not windows:
            return False
        at = self.simulator.now if now is None else now
        return any(window.active(at) for window in windows)

    def disk_faulty(self, disk_name: str) -> bool:
        windows = self._disk_faults.get(disk_name)
        if not windows:
            return False
        if any(window.active(self.simulator.now) for window in windows):
            self._record("disk_fault")
            return True
        return False

    def counter_unavailable(self, service_name: str) -> bool:
        windows = self._counter_outages.get(service_name)
        if not windows:
            return False
        if any(window.active(self.simulator.now) for window in windows):
            self._record("counter_outage")
            return True
        return False

    def store_faulty(self, store_name: str, operation: str) -> bool:
        windows = self._store_faults.get((store_name, operation))
        if not windows:
            return False
        if any(window.active(self.simulator.now) for window in windows):
            self._record("store_fault")
            return True
        return False

    # -- accounting --------------------------------------------------------

    def _record(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        self.telemetry.inc("palaemon_faults_injected_total", kind=kind)

    def summary(self) -> Dict[str, int]:
        """Injected fault counts by kind, sorted for stable rendering."""
        return dict(sorted(self.injected.items()))
