"""Sealed storage: encryption bound to (platform, MRENCLAVE).

PALAEMON stores its identity key pair and file-system key in sealed storage
(§IV-B): data sealed by an enclave can only be unsealed by an enclave with
the same MRENCLAVE on the same platform. The sealing key is derived from a
platform fuse key and the MRENCLAVE, so both a different machine and a
modified binary fail to unseal — exactly the two attacks this defends
against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.primitives import DeterministicRandom, hkdf
from repro.crypto.symmetric import Ciphertext, AEADCipher, NONCE_SIZE
from repro.errors import IntegrityError, SealingError
from repro.tee.enclave import Enclave


@dataclass(frozen=True)
class SealedBlob:
    """An opaque sealed byte string plus the label it was sealed under."""

    label: str
    ciphertext: bytes


class SealingService:
    """Derives per-(MRENCLAVE, label) sealing keys from the platform fuse key."""

    def __init__(self, platform_id: bytes, fuse_key: bytes,
                 rng: DeterministicRandom) -> None:
        self.platform_id = platform_id
        self._fuse_key = fuse_key
        self._rng = rng

    def _sealing_key(self, mrenclave: bytes, label: str) -> bytes:
        return hkdf(self._fuse_key, b"seal:" + mrenclave + label.encode(),
                    salt=self.platform_id)

    def seal(self, enclave: Enclave, label: str, data: bytes) -> SealedBlob:
        """Seal ``data`` for the calling enclave's identity."""
        if enclave.destroyed:
            raise SealingError("cannot seal from a destroyed enclave")
        cipher = AEADCipher(self._sealing_key(enclave.mrenclave, label))
        nonce = self._rng.bytes(NONCE_SIZE)
        sealed = cipher.encrypt(data, nonce, associated_data=label.encode())
        return SealedBlob(label=label, ciphertext=sealed.to_bytes())

    def unseal(self, enclave: Enclave, blob: SealedBlob) -> bytes:
        """Unseal ``blob``; fails for a different MRENCLAVE or platform."""
        if enclave.destroyed:
            raise SealingError("cannot unseal into a destroyed enclave")
        cipher = AEADCipher(self._sealing_key(enclave.mrenclave, blob.label))
        try:
            return cipher.decrypt(Ciphertext.from_bytes(blob.ciphertext),
                                  associated_data=blob.label.encode())
        except IntegrityError as exc:
            raise SealingError(
                "unseal failed: wrong platform or wrong MRENCLAVE") from exc
