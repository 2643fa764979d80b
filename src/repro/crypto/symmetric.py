"""Authenticated symmetric encryption (AEAD).

The cipher XORs the message with a SHAKE-256 keystream (FIPS 202) and
adds an encrypt-then-MAC HMAC-SHA-256 tag over nonce, associated data,
and ciphertext. This gives real confidentiality and integrity inside the
simulation with zero dependencies; a deployment would use AES-GCM.

Data is processed in :data:`CHUNK_SIZE` pieces. Chunk ``i`` is XORed
with ``SHAKE-256(key || nonce || i)``, with ``i`` as a big-endian 64-bit
counter, read to the chunk's length: one C call per chunk, whose
fixed-width input fits one SHAKE-256 block. The MAC is RFC 2104 HMAC,
whose inner and outer states a cipher keys once and copies per message,
so a message pays no HMAC key schedule. The XOR runs on whole chunks as
Python integers rather than byte by byte. Chunking keeps the keystream
and the integers alive at any moment one chunk long: the peak allocation
of a seal is about twice its output (the chunk results and their join),
however large the message. A whole-message keystream and integer would
almost triple that for the ~2 MB segments of a 1,000-policy database.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.primitives import (
    DeterministicRandom,
    constant_time_equal,
    hkdf,
    hmac_sha256_states,
)
from repro.errors import IntegrityError

KEY_SIZE = 32
NONCE_SIZE = 16
TAG_SIZE = 32
#: Bytes XORed per step, each step with its own keystream.
CHUNK_SIZE = 64 * 1024


@dataclass(frozen=True)
class Ciphertext:
    """An encrypted, authenticated message."""

    nonce: bytes
    body: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        """Serialize to ``nonce || tag || body``."""
        return self.nonce + self.tag + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ciphertext":
        """Parse the serialization produced by :meth:`to_bytes`."""
        if len(data) < NONCE_SIZE + TAG_SIZE:
            raise IntegrityError("ciphertext too short")
        nonce = data[:NONCE_SIZE]
        tag = data[NONCE_SIZE:NONCE_SIZE + TAG_SIZE]
        body = data[NONCE_SIZE + TAG_SIZE:]
        return cls(nonce=nonce, body=body, tag=tag)

    def __len__(self) -> int:
        return len(self.nonce) + len(self.tag) + len(self.body)


def _xor_keystream(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the (key, nonce) keystream, one chunk at a time."""
    prefix = key + nonce
    pieces = []
    for index, start in enumerate(range(0, len(data), CHUNK_SIZE)):
        chunk = data[start:start + CHUNK_SIZE]
        stream = hashlib.shake_256(
            prefix + index.to_bytes(8, "big")).digest(len(chunk))
        mixed = (int.from_bytes(chunk, "little")
                 ^ int.from_bytes(stream, "little"))
        pieces.append(mixed.to_bytes(len(chunk), "little"))
    return b"".join(pieces)


class AEADCipher:
    """Authenticated encryption with associated data under a single key.

    Separate encryption and MAC keys are derived from the master key via
    HKDF so a single 32-byte secret drives the whole construction. The MAC
    key is kept only as keyed HMAC states, which every message copies.
    The encryption key is kept as bytes: a state holding its 32 bytes
    saves no compression, and a TLS server keeps both ciphers of every
    session it has served, so each retained state costs memory.
    """

    __slots__ = ("_encryption_key", "_mac_inner", "_mac_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_SIZE:
            raise ValueError(f"key must be {KEY_SIZE} bytes, got {len(key)}")
        self._encryption_key = hkdf(key, b"aead-encryption")
        self._mac_inner, self._mac_outer = hmac_sha256_states(
            hkdf(key, b"aead-mac"))

    def _mac(self, nonce: bytes, associated_data: bytes,
             body: bytes) -> bytes:
        """HMAC-SHA-256 of ``nonce || associated_data || body``."""
        inner = self._mac_inner.copy()
        inner.update(nonce)
        inner.update(associated_data)
        inner.update(body)
        outer = self._mac_outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def encrypt(self, plaintext: bytes, nonce: bytes,
                associated_data: bytes = b"") -> Ciphertext:
        """Encrypt and authenticate ``plaintext``.

        The caller supplies the nonce; reusing a nonce under the same key for
        different plaintexts breaks confidentiality, exactly as with real
        stream ciphers, so callers draw nonces from a DRBG.
        """
        if len(nonce) != NONCE_SIZE:
            raise ValueError(f"nonce must be {NONCE_SIZE} bytes")
        body = _xor_keystream(self._encryption_key, nonce, plaintext)
        tag = self._mac(nonce, associated_data, body)
        return Ciphertext(nonce=nonce, body=body, tag=tag)

    def decrypt(self, ciphertext: Ciphertext,
                associated_data: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`IntegrityError` on tampering."""
        expected = self._mac(ciphertext.nonce, associated_data,
                             ciphertext.body)
        if not constant_time_equal(expected, ciphertext.tag):
            raise IntegrityError("AEAD tag mismatch")
        return _xor_keystream(self._encryption_key, ciphertext.nonce,
                              ciphertext.body)


class SecretBox:
    """Convenience wrapper: AEAD plus automatic nonce management.

    This is the shape most PALAEMON components want — "encrypt this blob" —
    with nonces drawn from a forked DRBG so two boxes never collide.
    """

    __slots__ = ("_cipher", "_rng")

    def __init__(self, key: bytes, rng: DeterministicRandom) -> None:
        self._cipher = AEADCipher(key)
        self._rng = rng

    def seal(self, plaintext: bytes, associated_data: bytes = b"") -> bytes:
        """Encrypt ``plaintext`` into a self-contained byte string."""
        nonce = self._rng.bytes(NONCE_SIZE)
        return self._cipher.encrypt(plaintext, nonce, associated_data).to_bytes()

    def open(self, sealed: bytes, associated_data: bytes = b"") -> bytes:
        """Decrypt a byte string produced by :meth:`seal`."""
        return self._cipher.decrypt(Ciphertext.from_bytes(sealed),
                                    associated_data)


def generate_key(rng: DeterministicRandom) -> bytes:
    """Draw a fresh symmetric key from ``rng``."""
    return rng.bytes(KEY_SIZE)
