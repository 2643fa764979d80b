"""Cryptographic primitives for the PALAEMON reproduction.

Everything in this package is *functionally real* inside the simulation:
encryption actually hides plaintext, MACs actually detect tampering, and
signatures verify with nothing but the public key. The primitives are
deliberately textbook (SHAKE-256 keystream AEAD, RSA-FDH signatures) because
the paper's security argument depends on the *protocols* built on top, not
on the specific ciphers; a production deployment would swap in AES-GCM and
Ed25519.
"""

from repro.crypto.primitives import (
    DeterministicRandom,
    constant_time_equal,
    hkdf,
    hmac_sha256,
    sha256,
)
from repro.crypto.symmetric import AEADCipher, SecretBox
from repro.crypto.signatures import KeyPair, PublicKey, SigningKey, verify_signature
from repro.crypto.certificates import Certificate, CertificateAuthority
from repro.crypto.merkle import MerkleTree

__all__ = [
    "AEADCipher",
    "Certificate",
    "CertificateAuthority",
    "DeterministicRandom",
    "KeyPair",
    "MerkleTree",
    "PublicKey",
    "SecretBox",
    "SigningKey",
    "constant_time_equal",
    "hkdf",
    "hmac_sha256",
    "sha256",
    "verify_signature",
]
