"""Key-management systems: Barbican, BarbiE, and Vault (Figs 14-15).

Both KMSs are functional: secrets are stored encrypted under a master key
and retrieved by token-authenticated clients. The performance distinctions
the paper measures:

- **Barbican** (Fig 14) — an interpreted CPython service. Three variants:
  native (simple crypto plugin), PALAEMON-hardened (whole service in the
  enclave), and BarbiE (only a small SGX "HSM" enclave — *faster* than
  native thanks to its compiled TCB). The post-Foreshadow microcode's L1
  flush on exit costs the PALAEMON variant ~30% but barely touches BarbiE;
  both are calibrated peak-rate factors, not per-exit costs.
- **Vault** (Fig 15) — a Go service needing a 1.9 GB heap; in hardware mode
  the enclave far exceeds the EPC, so paging brings throughput to 61% of
  native (82% in EMU, where no paging happens). Both are calibrated
  fractions of the native peak.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Generator

from repro import calibration
from repro.apps.base import SimulatedServer, calibrated_service_seconds
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.symmetric import SecretBox
from repro.errors import AccessDeniedError
from repro.sim.core import Event, Simulator
from repro.tee.enclave import ExecutionMode


class _EncryptedSecretStore:
    """Shared functional core: token-authenticated encrypted secrets."""

    def __init__(self, rng: DeterministicRandom) -> None:
        self._box = SecretBox(rng.fork(b"master-key").bytes(32),
                              rng.fork(b"nonces"))
        self._secrets: Dict[str, bytes] = {}
        self._tokens: Dict[str, str] = {}  # token -> principal

    def issue_token(self, principal: str, rng: DeterministicRandom) -> str:
        token = rng.bytes(16).hex()
        self._tokens[token] = principal
        return token

    def authenticate(self, token: str) -> str:
        try:
            return self._tokens[token]
        except KeyError:
            raise AccessDeniedError("invalid token") from None

    def store(self, token: str, name: str, value: bytes) -> None:
        self.authenticate(token)
        self._secrets[name] = self._box.seal(value,
                                             associated_data=name.encode())

    def retrieve(self, token: str, name: str) -> bytes:
        self.authenticate(token)
        sealed = self._secrets.get(name)
        if sealed is None:
            raise KeyError(name)
        return self._box.open(sealed, associated_data=name.encode())


class BarbicanVariant(enum.Enum):
    """The Fig 14 contenders."""

    NATIVE = "native"
    PALAEMON_HW = "palaemon-hw"
    BARBIE = "barbie"


def _barbican_peak_rps(variant: BarbicanVariant,
                       microcode: calibration.MicrocodeLevel) -> float:
    """Variant- and microcode-dependent saturation throughput."""
    if variant is BarbicanVariant.NATIVE:
        return calibration.BARBICAN_NATIVE_PEAK_RPS
    if variant is BarbicanVariant.BARBIE:
        peak = calibration.BARBIE_PEAK_RPS
        if microcode.flushes_l1_on_exit:
            peak *= calibration.BARBIE_MICROCODE_PENALTY_FACTOR
        return peak
    peak = calibration.BARBICAN_PALAEMON_PEAK_RPS
    if microcode.flushes_l1_on_exit:
        peak *= calibration.MICROCODE_PENALTY_FACTOR
    return peak


class BarbicanServer(SimulatedServer):
    """Barbican: an interpreted-Python KMS."""

    def __init__(self, simulator: Simulator, variant: BarbicanVariant,
                 microcode: calibration.MicrocodeLevel = (
                     calibration.MICROCODE_PRE_SPECTRE)) -> None:
        # Barbican's interpreted request path is effectively serial: one
        # worker at ~36 ms/request reproduces both the ~28 req/s native peak
        # and the sub-100 ms latency range of Fig 14.
        super().__init__(simulator, "barbican",
                         1 / _barbican_peak_rps(variant, microcode),
                         threads=1)
        self.secrets = _EncryptedSecretStore(DeterministicRandom(b"barbican"))

    def handle_retrieve(self, token: str,
                        name: str) -> Generator[Event, Any, bytes]:
        yield self.simulator.process(self.serve())
        return self.secrets.retrieve(token, name)


_VAULT_MODE_FRACTIONS = {
    ExecutionMode.NATIVE: 1.0,
    ExecutionMode.EMULATED: calibration.VAULT_EMU_FRACTION,
    ExecutionMode.HARDWARE: calibration.VAULT_HW_FRACTION,
}


class VaultServer(SimulatedServer):
    """Vault: a compiled KMS with a 1.9 GB heap (EPC-paging showcase)."""

    HEAP_BYTES = int(1.9 * calibration.GB)

    def __init__(self, simulator: Simulator,
                 mode: ExecutionMode = ExecutionMode.NATIVE) -> None:
        super().__init__(simulator, "vault", calibrated_service_seconds(
            calibration.VAULT_NATIVE_PEAK_RPS, _VAULT_MODE_FRACTIONS[mode]))
        self.mode = mode
        self.secrets = _EncryptedSecretStore(DeterministicRandom(b"vault"))

    def handle_retrieve(self, token: str,
                        name: str) -> Generator[Event, Any, bytes]:
        yield self.simulator.process(self.serve())
        return self.secrets.retrieve(token, name)
