"""Digital signatures: textbook RSA full-domain-hash over SHA-256.

Pure-Python RSA gives the reproduction *real* public-key verification — a
verifier holding only the public key can check a signature, and nothing in
the simulation can forge one without the private exponent. Keys default to
768 bits: far too small for production (the paper's PALAEMON uses Ed25519)
but computationally honest and fast enough to generate thousands of keys in
a test run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.primitives import DeterministicRandom, sha256
from repro.errors import SignatureError

DEFAULT_KEY_BITS = 768

# Deterministic Miller-Rabin witness sets are proven exhaustive below
# 3_317_044_064_679_887_385_961_981; for larger candidates we add rounds with
# witnesses drawn from the key-generation DRBG.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)


def _is_probable_prime(candidate: int, rng: DeterministicRandom,
                       rounds: int = 24) -> bool:
    """Miller-Rabin primality test with DRBG-chosen witnesses."""
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate % prime == 0:
            return candidate == prime
    # Write candidate - 1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        witness = rng.randint(2, candidate - 2)
        x = pow(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: DeterministicRandom) -> int:
    """Generate a random prime of exactly ``bits`` bits."""
    while True:
        candidate = int.from_bytes(rng.bytes((bits + 7) // 8), "big")
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        candidate &= (1 << bits) - 1
        if _is_probable_prime(candidate, rng):
            return candidate


def _modular_inverse(a: int, modulus: int) -> int:
    """Return a^-1 mod modulus via the extended Euclidean algorithm."""
    old_r, r = a, modulus
    old_s, s = 1, 0
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
    if old_r != 1:
        raise ValueError("inverse does not exist")
    return old_s % modulus


def _full_domain_hash(message: bytes, modulus: int) -> int:
    """Hash ``message`` into Z_n by concatenating counter-indexed digests."""
    nbytes = (modulus.bit_length() + 7) // 8
    material = bytearray()
    counter = 0
    while len(material) < nbytes:
        material.extend(sha256(b"rsa-fdh", counter.to_bytes(4, "big"), message))
        counter += 1
    return int.from_bytes(bytes(material[:nbytes]), "big") % modulus


@dataclass(frozen=True)
class PublicKey:
    """An RSA public key ``(n, e)``; hashable so it can identify principals."""

    modulus: int
    exponent: int

    def fingerprint(self) -> bytes:
        """A short stable identifier for this key."""
        return sha256(self.to_bytes())[:16]

    def to_bytes(self) -> bytes:
        n_bytes = self.modulus.to_bytes((self.modulus.bit_length() + 7) // 8,
                                        "big")
        e_bytes = self.exponent.to_bytes(4, "big")
        return len(n_bytes).to_bytes(2, "big") + n_bytes + e_bytes

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        n_len = int.from_bytes(data[:2], "big")
        modulus = int.from_bytes(data[2:2 + n_len], "big")
        exponent = int.from_bytes(data[2 + n_len:2 + n_len + 4], "big")
        return cls(modulus=modulus, exponent=exponent)

    def verify(self, message: bytes, signature: bytes) -> None:
        """Raise :class:`SignatureError` unless ``signature`` is valid."""
        if not verify_signature(self, message, signature):
            raise SignatureError("signature verification failed")


@dataclass(frozen=True)
class SigningKey:
    """The private half of a key pair, with its CRT parameters.

    Besides ``d`` itself the key keeps the primes and the Chinese-remainder
    values ``d mod (p-1)``, ``d mod (q-1)`` and ``q^-1 mod p`` (PKCS #1
    §3.2), so :meth:`sign` does two half-size exponentiations instead of
    one full-modulus ``pow(m, d, n)``: about twice as fast, same signature.
    """

    modulus: int
    private_exponent: int
    prime_p: int
    prime_q: int
    exponent_p: int
    exponent_q: int
    coefficient: int

    def sign(self, message: bytes) -> bytes:
        """Produce an RSA-FDH signature over ``message``.

        Garner's recombination of ``m^d mod p`` and ``m^d mod q`` equals
        ``m^d mod n`` for every ``m`` in ``Z_n``, so the bytes are those
        of the textbook ``pow(m, d, n)``.
        """
        digest = _full_domain_hash(message, self.modulus)
        mod_p = pow(digest, self.exponent_p, self.prime_p)
        mod_q = pow(digest, self.exponent_q, self.prime_q)
        h = (self.coefficient * (mod_p - mod_q)) % self.prime_p
        signature = mod_q + h * self.prime_q
        nbytes = (self.modulus.bit_length() + 7) // 8
        return signature.to_bytes(nbytes, "big")


@dataclass(frozen=True)
class KeyPair:
    """A signing key pair; generate with :meth:`generate`."""

    public: PublicKey
    private: SigningKey

    @classmethod
    def generate(cls, rng: DeterministicRandom,
                 bits: int = DEFAULT_KEY_BITS) -> "KeyPair":
        """Generate a fresh RSA key pair from the given DRBG."""
        if bits < 128:
            raise ValueError("key size too small even for simulation")
        exponent = 65537
        while True:
            p = _generate_prime(bits // 2, rng)
            q = _generate_prime(bits - bits // 2, rng)
            if p == q:
                continue
            totient = (p - 1) * (q - 1)
            if totient % exponent == 0:
                continue
            modulus = p * q
            private_exponent = _modular_inverse(exponent, totient)
            public = PublicKey(modulus=modulus, exponent=exponent)
            private = SigningKey(
                modulus=modulus, private_exponent=private_exponent,
                prime_p=p, prime_q=q,
                exponent_p=private_exponent % (p - 1),
                exponent_q=private_exponent % (q - 1),
                coefficient=_modular_inverse(q, p))
            return cls(public=public, private=private)

    def sign(self, message: bytes) -> bytes:
        return self.private.sign(message)


def verify_signature(public_key: PublicKey, message: bytes,
                     signature: bytes) -> bool:
    """Return True iff ``signature`` is a valid signature on ``message``."""
    expected_len = (public_key.modulus.bit_length() + 7) // 8
    if len(signature) != expected_len:
        return False
    sig_int = int.from_bytes(signature, "big")
    if sig_int >= public_key.modulus:
        return False
    digest = _full_domain_hash(message, public_key.modulus)
    return pow(sig_int, public_key.exponent, public_key.modulus) == digest
