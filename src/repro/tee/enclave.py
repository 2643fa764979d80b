"""Running enclaves and their execution modes.

An :class:`Enclave` is an image loaded on a platform: it has an identity
(MRENCLAVE), private memory, and EPC pages that :meth:`Enclave.destroy`
returns. Quoting and sealing refuse a destroyed enclave. Enclave exits,
syscalls and EPC faults are not charged one by one: the macro-benchmark
apps (Figs 14-17, §VI) charge calibrated per-request service times instead
(docs/SIMULATION.md).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any

from repro.tee.image import EnclaveImage


class ExecutionMode(enum.Enum):
    """How an application runs (the paper's evaluation variants)."""

    #: No SGX, no shields: plain process.
    NATIVE = "native"
    #: SCONE emulation mode: shields active, no SGX hardware costs.
    EMULATED = "emu"
    #: Real SGX hardware: EPC, quotes, microcode.
    HARDWARE = "hw"


_enclave_ids = itertools.count(1)


class Enclave:
    """A loaded enclave instance on a platform."""

    def __init__(self, platform: "Any", image: EnclaveImage,
                 mode: ExecutionMode = ExecutionMode.HARDWARE) -> None:
        self.platform = platform
        self.image = image
        self.mode = mode
        self.enclave_id = next(_enclave_ids)
        self.mrenclave = image.mrenclave()
        self.destroyed = False
        #: Enclave-private memory (never visible to the untrusted side).
        self.private_memory: dict = {}

    def destroy(self) -> None:
        """Tear down the enclave and release its EPC pages."""
        if self.destroyed:
            return
        self.destroyed = True
        if self.mode is ExecutionMode.HARDWARE:
            self.platform.epc.free(self.image.total_bytes)
