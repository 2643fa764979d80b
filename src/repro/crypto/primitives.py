"""Hashing, key derivation, and deterministic randomness.

The simulation must be fully deterministic so that experiments are exactly
reproducible; all randomness flows from :class:`DeterministicRandom`, a
SHA-256-based CSPRNG-shaped generator seeded explicitly by the caller.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import struct


def sha256(*parts: bytes) -> bytes:
    """Hash the concatenation of ``parts`` with SHA-256."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()


_HMAC_BLOCK_SIZE = 64
#: ``bytes.translate`` tables that XOR every byte with the HMAC pads.
_INNER_PAD = bytes(x ^ 0x36 for x in range(256))
_OUTER_PAD = bytes(x ^ 0x5C for x in range(256))


def hmac_sha256_states(key: bytes):
    """The HMAC-SHA-256 inner and outer hash states keyed with ``key``.

    RFC 2104: a key longer than the 64-byte block is hashed first, the key
    is zero-padded to the block, and the inner and outer states absorb it
    XORed with 0x36 and 0x5C bytes. A holder of one key copies the states
    per message instead of keying a new MAC.
    """
    if len(key) > _HMAC_BLOCK_SIZE:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_HMAC_BLOCK_SIZE, b"\x00")
    return (hashlib.sha256(key.translate(_INNER_PAD)),
            hashlib.sha256(key.translate(_OUTER_PAD)))


def hmac_sha256(key: bytes, *parts: bytes) -> bytes:
    """Compute HMAC-SHA-256 of the concatenation of ``parts`` under ``key``."""
    inner, outer = hmac_sha256_states(key)
    for part in parts:
        inner.update(part)
    outer.update(inner.digest())
    return outer.digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without leaking the mismatch position."""
    return _hmac.compare_digest(a, b)


def hkdf(key_material: bytes, info: bytes, length: int = 32,
         salt: bytes = b"") -> bytes:
    """HKDF (RFC 5869) with SHA-256: extract-then-expand key derivation.

    Parameters
    ----------
    key_material:
        Input keying material.
    info:
        Context string binding the derived key to its purpose.
    length:
        Number of output bytes (at most 255 * 32).
    salt:
        Optional non-secret salt.
    """
    if length <= 0 or length > 255 * 32:
        raise ValueError(f"invalid HKDF output length: {length}")
    pseudo_random_key = hmac_sha256(salt or b"\x00" * 32, key_material)
    blocks = []
    previous = b""
    for counter in range(1, (length + 31) // 32 + 1):
        previous = hmac_sha256(pseudo_random_key, previous, info,
                               bytes((counter,)))
        blocks.append(previous)
    return b"".join(blocks)[:length]


class DeterministicRandom:
    """A deterministic random byte generator (SHA-256 in counter mode).

    All key generation, nonce selection, and workload randomness in the
    simulation derives from instances of this class, making every experiment
    bit-for-bit reproducible from its seed.
    """

    def __init__(self, seed: bytes) -> None:
        if not seed:
            raise ValueError("seed must be non-empty")
        self._state = sha256(b"repro-drbg-v1", seed)
        self._counter = 0

    def bytes(self, length: int) -> bytes:
        """Return ``length`` pseudo-random bytes."""
        if length < 0:
            raise ValueError("length must be non-negative")
        output = bytearray()
        while len(output) < length:
            block = sha256(self._state, struct.pack(">Q", self._counter))
            self._counter += 1
            output.extend(block)
        return bytes(output[:length])

    def fork(self, label: bytes) -> "DeterministicRandom":
        """Derive an independent child generator bound to ``label``.

        Forking lets subsystems draw randomness without perturbing each
        other's streams (adding a component does not change the bytes every
        other component sees).
        """
        return DeterministicRandom(sha256(self._state, b"fork", label))

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range [low, high]."""
        if low > high:
            raise ValueError("low must not exceed high")
        span = high - low + 1
        # Rejection sampling over the next power-of-two range for uniformity.
        nbytes = (span.bit_length() + 7) // 8
        bound = 1 << (nbytes * 8)
        limit = bound - (bound % span)
        while True:
            value = int.from_bytes(self.bytes(nbytes), "big")
            if value < limit:
                return low + (value % span)

    def random(self) -> float:
        """Return a uniform float in [0, 1)."""
        return int.from_bytes(self.bytes(7), "big") / (1 << 56)

    def expovariate(self, rate: float) -> float:
        """Return an exponentially distributed sample with the given rate."""
        import math

        if rate <= 0:
            raise ValueError("rate must be positive")
        # 1 - random() is in (0, 1], so log() is defined.
        return -math.log(1.0 - self.random()) / rate

    def shuffle(self, items: "list") -> None:
        """Shuffle ``items`` in place (Fisher-Yates)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]
