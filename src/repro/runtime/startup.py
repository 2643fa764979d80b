"""Application startup: the four variants of Fig 9 and the phases of Fig 8.

Every start runs :meth:`SGXPlatform.launch` on the model's one platform:
the EPC load under the driver's global lock, then the native process start
on the platform's CPU threads. An attested start then runs one attestation
leg, whose four phases are Fig 8's.

- ``NATIVE``   — plain process start: CPU-bound, scales with hyper-threads
  to ~3700 starts/s.
- ``SGX_ONLY`` — SGX enclave without attestation: serialized by the
  driver's global EPC lock at ~100 starts/s, independent of parallelism.
- ``PALAEMON`` — SGX + attestation against a rack-local PALAEMON: ~15 ms per
  start. PALAEMON serves one quote at a time from send-quote to
  receive-config (11 ms), which saturates near ~90 starts/s.
- ``IAS``      — SGX + per-start IAS attestation: ~280+ ms per start. IAS
  verifies ten quotes at a time, so only heavy parallelism partially hides
  the latency (peaks ~40/s at 60 parallel instances, at >1 s latency).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Generator

from repro import calibration
from repro.crypto.primitives import DeterministicRandom
from repro.sim.core import Event, Simulator
from repro.sim.network import Site
from repro.sim.resources import Resource
from repro.tee.enclave import ExecutionMode
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform


class AttestationVariant(enum.Enum):
    """Startup flavours measured in Fig 9."""

    NATIVE = "native"
    SGX_ONLY = "sgx-without-attestation"
    PALAEMON = "palaemon"
    IAS = "ias"


#: Fig 8's IAS wait phase per client site; it already includes the network.
_IAS_WAIT_SECONDS = {
    Site.IAS_US: calibration.ATTEST_WAIT_IAS_US_SECONDS,
    Site.IAS_EU: calibration.ATTEST_WAIT_IAS_EU_SECONDS,
}


class StartupModel:
    """One SGX machine and the attestation services its starts contend for."""

    #: Quotes the IAS front end verifies concurrently.
    IAS_FRONTEND_SLOTS = 10

    def __init__(self, simulator: Simulator,
                 ias_site: Site = Site.IAS_US) -> None:
        if ias_site not in _IAS_WAIT_SECONDS:
            raise ValueError(f"no IAS wait phase for site {ias_site}")
        self.simulator = simulator
        self.platform = SGXPlatform(simulator, "startup-node",
                                    DeterministicRandom(b"startup-node"))
        #: Fig 7's smallest enclave: the 80 kB binary in 1 MB.
        self.image = build_image("startup-app", heap_bytes=(
            calibration.MB - 96 * calibration.KB))
        self.ias_wait_seconds = _IAS_WAIT_SECONDS[ias_site]
        self.palaemon_worker = Resource(simulator, capacity=1,
                                        name="palaemon-worker")
        self.ias_frontend = Resource(simulator,
                                     capacity=self.IAS_FRONTEND_SLOTS,
                                     name="ias-frontend")

    def start_one(self, variant: AttestationVariant,
                  ) -> Generator[Event, Any, float]:
        """One application start; returns the virtual duration.

        The enclave is torn down when its start completes, so a sweep
        never fills the EPC.
        """
        began = self.simulator.now
        mode = (ExecutionMode.NATIVE if variant is AttestationVariant.NATIVE
                else ExecutionMode.HARDWARE)
        enclave = yield self.simulator.process(
            self.platform.launch(self.image, mode))
        try:
            if variant in (AttestationVariant.PALAEMON,
                           AttestationVariant.IAS):
                yield self.simulator.process(self.attest(variant))
        finally:
            enclave.destroy()
        return self.simulator.now - began

    def attest(self, variant: AttestationVariant,
               ) -> Generator[Event, Any, Dict[str, float]]:
        """One attestation leg; returns Fig 8's four phases in seconds.

        PALAEMON holds its single worker from send-quote to receive-config;
        IAS holds a front-end slot while it verifies the quote. Time spent
        queueing for the server counts towards the phase that waits for it.
        """
        if variant not in (AttestationVariant.PALAEMON,
                           AttestationVariant.IAS):
            raise ValueError(f"no attestation phases for variant {variant}")
        sim = self.simulator
        phases: Dict[str, float] = {}
        mark = sim.now

        def lap(phase: str) -> None:
            nonlocal mark
            phases[phase] = sim.now - mark
            mark = sim.now

        # Key generation, DNS, TCP + TLS handshake: the same for both.
        yield sim.timeout(calibration.ATTEST_INIT_SECONDS)
        lap("initialization")
        if variant is AttestationVariant.PALAEMON:
            yield self.palaemon_worker.acquire()
            try:
                yield sim.timeout(
                    calibration.ATTEST_SEND_QUOTE_PALAEMON_SECONDS)
                lap("send_quote")
                yield sim.timeout(calibration.ATTEST_WAIT_PALAEMON_SECONDS)
                lap("wait_confirmation")
                yield sim.timeout(calibration.ATTEST_RECEIVE_CONFIG_SECONDS)
                lap("receive_config")
            finally:
                self.palaemon_worker.release()
            return phases
        # EPID crypto plus the extra round trip that embeds verifier data.
        yield sim.timeout(calibration.ATTEST_SEND_QUOTE_IAS_SECONDS)
        lap("send_quote")
        yield self.ias_frontend.acquire()
        try:
            yield sim.timeout(self.ias_wait_seconds)
        finally:
            self.ias_frontend.release()
        lap("wait_confirmation")
        yield sim.timeout(calibration.ATTEST_RECEIVE_CONFIG_SECONDS)
        lap("receive_config")
        return phases
