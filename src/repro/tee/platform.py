"""The SGX platform: ties EPC, loader, quoting, sealing, and counters together.

One :class:`SGXPlatform` corresponds to one physical machine of the paper's
cluster (Dell R330, Xeon E3-1270 v6, 128 MB EPC). Its microcode revision
is the TCB level that IAS attests (pre-Spectre vs post-Foreshadow).
"""

from __future__ import annotations

from typing import Any, Generator

from repro import calibration
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair
from repro.sim.core import Event, Simulator
from repro.sim.resources import CpuPool
from repro.tee.counters import PlatformCounterService
from repro.tee.enclave import Enclave, ExecutionMode
from repro.tee.epc import EnclavePageCache
from repro.tee.image import EnclaveImage
from repro.tee.loader import EnclaveLoader, MeasurementScope
from repro.tee.quoting import QuotingEnclave
from repro.tee.sealing import SealingService


class SGXPlatform:
    """A simulated SGX-capable machine."""

    def __init__(self, simulator: Simulator, name: str,
                 rng: DeterministicRandom,
                 microcode: calibration.MicrocodeLevel = (
                     calibration.MICROCODE_POST_FORESHADOW),
                 epc_bytes: int = calibration.EPC_SIZE_DEFAULT,
                 cpu_threads: int = calibration.CPU_HYPERTHREADS) -> None:
        self.simulator = simulator
        self.name = name
        self.microcode = microcode
        self.platform_id = rng.fork(b"platform-id").bytes(16)
        self.epc = EnclavePageCache(simulator, size_bytes=epc_bytes)
        self.loader = EnclaveLoader(simulator, self.epc)
        self.cpu = CpuPool(simulator, threads=cpu_threads,
                           name=f"{name}-cpu")
        self.quoting_enclave = QuotingEnclave(
            self.platform_id, KeyPair.generate(rng.fork(b"attest-key")))
        self.sealing = SealingService(self.platform_id,
                                      rng.fork(b"fuse-key").bytes(32),
                                      rng.fork(b"seal-nonces"))
        self.counters = PlatformCounterService(simulator)
        self._rng = rng

    def launch(self, image: EnclaveImage,
               mode: ExecutionMode = ExecutionMode.HARDWARE,
               scope: MeasurementScope = MeasurementScope.CODE_ONLY,
               ) -> Generator[Event, Any, Enclave]:
        """Load and start an enclave; a process returning the instance.

        Non-hardware modes skip the EPC entirely (nothing to add or
        measure against the cache) but still pay the native process start.
        """
        if mode is ExecutionMode.HARDWARE:
            yield self.simulator.process(self.loader.load(image, scope=scope))
        yield self.simulator.process(
            self.cpu.execute(calibration.NATIVE_START_CPU_SECONDS))
        return Enclave(self, image, mode=mode)

    def launch_instant(self, image: EnclaveImage,
                       mode: ExecutionMode = ExecutionMode.HARDWARE,
                       ) -> Enclave:
        """Create an enclave without charging startup costs.

        Functional tests that exercise protocols (not performance) use this
        to avoid driving the simulator for every fixture.
        """
        if mode is ExecutionMode.HARDWARE:
            self.epc.allocated_bytes += image.total_bytes
        return Enclave(self, image, mode=mode)

    def set_microcode(self, microcode: calibration.MicrocodeLevel) -> None:
        """Apply a microcode update (changes the attested TCB level)."""
        self.microcode = microcode
