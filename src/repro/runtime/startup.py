"""Application startup cost model: the four variants of Fig 9.

- ``NATIVE``   — plain process start: CPU-bound, scales with hyper-threads
  to ~3700 starts/s.
- ``SGX_ONLY`` — SGX enclave without attestation: serialized by the
  driver's global EPC lock at ~100 starts/s, independent of parallelism.
- ``PALAEMON`` — SGX + attestation against a rack-local PALAEMON: ~15 ms per
  start, saturating near ~90 starts/s.
- ``IAS``      — SGX + per-start IAS attestation: ~280+ ms per start; only
  heavy parallelism partially hides the latency (peaks ~40/s at 60
  parallel instances, at >1 s latency).
"""

from __future__ import annotations

import enum
from typing import Any, Generator

from repro import calibration
from repro.sim.core import Event, Simulator
from repro.sim.network import Site, rtt_between
from repro.sim.resources import CpuPool, Resource, SimLock


class AttestationVariant(enum.Enum):
    """Startup flavours measured in Fig 9."""

    NATIVE = "native"
    SGX_ONLY = "sgx-without-attestation"
    PALAEMON = "palaemon"
    IAS = "ias"


class StartupModel:
    """Shared contended resources for a startup-throughput experiment."""

    def __init__(self, simulator: Simulator,
                 cpu_threads: int = calibration.CPU_HYPERTHREADS,
                 ias_site: Site = Site.IAS_US) -> None:
        self.simulator = simulator
        self.cpu = CpuPool(simulator, threads=cpu_threads, name="node-cpu")
        self.driver_lock = SimLock(simulator, name="sgx-driver-lock")
        #: PALAEMON serves attestations sequentially (one enclave, one DB);
        #: the per-request time sets the ~90 starts/s ceiling.
        self.palaemon_workers = Resource(simulator, capacity=1,
                                         name="palaemon-workers")
        self.palaemon_service_seconds = (
            1.0 / calibration.PALAEMON_ATTESTED_START_RATE)
        self.ias_site = ias_site
        #: IAS verification is parallel server-side but throttled per
        #: client; 10 in-flight slots at ~260 ms each peak near 40/s with
        #: ~1.4 s latency at 60 parallel starts (Fig 9).
        self.ias_verification_seconds = calibration.ATTEST_WAIT_IAS_US_SECONDS
        self.ias_workers = Resource(simulator, capacity=10,
                                    name="ias-frontend")

    def start_one(self, variant: AttestationVariant,
                  ) -> Generator[Event, Any, float]:
        """One application start; returns the virtual duration."""
        began = self.simulator.now
        if variant is not AttestationVariant.NATIVE:
            # EPC setup under the driver-global lock (the Fig 9 bottleneck).
            yield self.driver_lock.acquire()
            try:
                yield self.simulator.timeout(
                    calibration.SGX_DRIVER_LOCK_SECONDS_PER_START)
            finally:
                self.driver_lock.release()
        # The native part of process creation competes for CPU threads.
        yield self.simulator.process(
            self.cpu.execute(calibration.NATIVE_START_CPU_SECONDS))
        if variant is AttestationVariant.PALAEMON:
            yield self.simulator.process(self._attest_palaemon())
        elif variant is AttestationVariant.IAS:
            yield self.simulator.process(self._attest_ias())
        return self.simulator.now - began

    def _attest_palaemon(self) -> Generator[Event, Any, None]:
        # Init: keygen, DNS, TCP+TLS handshake to the rack-local PALAEMON.
        yield self.simulator.timeout(calibration.ATTEST_INIT_SECONDS)
        yield self.simulator.timeout(
            calibration.ATTEST_SEND_QUOTE_PALAEMON_SECONDS)
        yield self.palaemon_workers.acquire()
        try:
            yield self.simulator.timeout(self.palaemon_service_seconds)
        finally:
            self.palaemon_workers.release()
        yield self.simulator.timeout(
            calibration.ATTEST_RECEIVE_CONFIG_SECONDS)

    def _attest_ias(self) -> Generator[Event, Any, None]:
        yield self.simulator.timeout(calibration.ATTEST_INIT_SECONDS)
        # Extra round trip to embed verifier data in the quote + EPID crypto.
        yield self.simulator.timeout(calibration.ATTEST_SEND_QUOTE_IAS_SECONDS)
        round_trip = rtt_between(Site.SAME_RACK, self.ias_site)
        yield self.ias_workers.acquire()
        try:
            yield self.simulator.timeout(round_trip
                                         + self.ias_verification_seconds)
        finally:
            self.ias_workers.release()
        yield self.simulator.timeout(
            calibration.ATTEST_RECEIVE_CONFIG_SECONDS)


def attestation_phase_latencies(variant: AttestationVariant,
                                ias_site: Site = Site.IAS_US) -> dict:
    """Closed-form per-phase latencies for Fig 8 (single attestation)."""
    if variant is AttestationVariant.PALAEMON:
        return {
            "initialization": calibration.ATTEST_INIT_SECONDS,
            "send_quote": calibration.ATTEST_SEND_QUOTE_PALAEMON_SECONDS,
            "wait_confirmation": calibration.ATTEST_WAIT_PALAEMON_SECONDS,
            "receive_config": calibration.ATTEST_RECEIVE_CONFIG_SECONDS,
        }
    if variant is AttestationVariant.IAS:
        wait = (calibration.ATTEST_WAIT_IAS_US_SECONDS
                if ias_site is Site.IAS_US
                else calibration.ATTEST_WAIT_IAS_EU_SECONDS)
        return {
            "initialization": calibration.ATTEST_INIT_SECONDS,
            "send_quote": calibration.ATTEST_SEND_QUOTE_IAS_SECONDS,
            "wait_confirmation": wait,
            "receive_config": calibration.ATTEST_RECEIVE_CONFIG_SECONDS,
        }
    raise ValueError(f"no attestation phases for variant {variant}")
