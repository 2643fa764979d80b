"""An NGINX-like static file server (Fig 17a).

Five variants from the paper: native; PALAEMON in EMU/HW (certificates and
private key injected, served files in the clear); and "+shield" EMU/HW
where *all served files* are additionally encrypted on disk — the paper's
observation is that whole-corpus file encryption costs far more than SGX
itself on this workload. No input models the TLS termination: its cost is
priced inside each variant's calibrated service time.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

from repro import calibration
from repro.apps.base import SimulatedServer, calibrated_service_seconds
from repro.crypto.primitives import DeterministicRandom
from repro.fs.blockstore import BlockStore
from repro.fs.shield import ProtectedFileSystem
from repro.sim.core import Event, Simulator


class NginxVariant(enum.Enum):
    """The five configurations of Fig 17a."""

    NATIVE = "native"
    PALAEMON_EMU = "palaemon-emu"
    PALAEMON_HW = "palaemon-hw"
    SHIELD_EMU = "emu+shield"
    SHIELD_HW = "hw+shield"

    @property
    def encrypts_files(self) -> bool:
        return self in (NginxVariant.SHIELD_EMU, NginxVariant.SHIELD_HW)


_VARIANT_FRACTIONS = {
    NginxVariant.NATIVE: 1.0,
    NginxVariant.PALAEMON_EMU: calibration.NGINX_PALAEMON_EMU_FRACTION,
    NginxVariant.PALAEMON_HW: calibration.NGINX_PALAEMON_HW_FRACTION,
    NginxVariant.SHIELD_EMU: calibration.NGINX_SHIELD_EMU_FRACTION,
    NginxVariant.SHIELD_HW: calibration.NGINX_SHIELD_HW_FRACTION,
}


class NginxServer(SimulatedServer):
    """Serves GET requests for files from a (possibly shielded) docroot."""

    def __init__(self, simulator: Simulator, variant: NginxVariant,
                 rng: Optional[DeterministicRandom] = None) -> None:
        super().__init__(simulator, "nginx", calibrated_service_seconds(
            calibration.NGINX_NATIVE_PEAK_RPS, _VARIANT_FRACTIONS[variant]))
        self._rng = rng or DeterministicRandom(b"nginx")
        self.store = BlockStore("nginx-docroot")
        self.fs: Optional[ProtectedFileSystem] = None
        if variant.encrypts_files:
            self.fs = ProtectedFileSystem(
                self.store, self._rng.fork(b"docroot-key").bytes(32),
                self._rng.fork(b"docroot"))

    def publish(self, path: str, content: bytes) -> None:
        """Install a file in the docroot (encrypted in shield variants)."""
        if self.fs is not None:
            self.fs.write(path, content)
            self.fs.sync()
        else:
            self.store.write(path, content)

    def read_document(self, path: str) -> Optional[bytes]:
        try:
            if self.fs is not None:
                return self.fs.read(path)
            return self.store.read(path)
        except FileNotFoundError:
            return None

    def handle_get(self, path: str) -> Generator[Event, Any, Optional[bytes]]:
        """One GET: worker time + the (real) file lookup; ``None`` is a
        404."""
        yield self.simulator.process(self.serve())
        return self.read_document(path)
