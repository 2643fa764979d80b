"""Digital signatures: textbook RSA full-domain-hash over SHA-256.

Pure-Python RSA gives the reproduction *real* public-key verification — a
verifier holding only the public key can check a signature, and nothing in
the simulation can forge one without the private exponent. Keys default to
768 bits: far too small for production (the paper's PALAEMON uses Ed25519)
but computationally honest and fast enough to generate thousands of keys in
a test run.

Each prime ``p`` is drawn as ``2kq + 1`` around a probable prime ``q`` of
just over half its size and proven prime from ``q`` by Pocklington's
theorem (the one-level form of FIPS 186-4 Appendix C.10 and Maurer's
provable primes). Miller-Rabin runs only on the half-size ``q``, and the
accepted ``p`` costs one and a half exponentiations instead of 24 rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.primitives import DeterministicRandom, sha256
from repro.errors import SignatureError

DEFAULT_KEY_BITS = 768

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)

#: Product of the odd primes below this bound; a candidate sharing a factor
#: with it is rejected by one gcd before any exponentiation. Of the bounds
#: 150 to 20,000, 1,000 generated 512- and 768-bit keys fastest.
_SIEVE_BOUND = 1000
_SIEVE_PRODUCT = math.prod(
    n for n in range(3, _SIEVE_BOUND, 2)
    if all(n % f for f in range(3, math.isqrt(n) + 1, 2)))
_EXPONENT = 65537


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
    """A random probable prime of ``bits`` bits whose top two bits are set."""
    while True:
        candidate = int.from_bytes(rng.bytes((bits + 7) // 8), "big")
        candidate &= (1 << bits) - 1
        candidate |= (3 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


def _pocklington_certifies(prime: int, factor: int) -> bool:
    """True iff ``factor`` (taken as prime) proves ``prime`` prime.

    Pocklington: if ``prime - 1 = 2k * factor`` with ``factor`` prime and
    ``factor**2 > prime``, a witness ``a`` with ``a^(prime-1) = 1`` and
    ``gcd(a^(2k) - 1, prime) = 1`` leaves ``prime`` no prime divisor at
    most its square root. The witness is 2.
    """
    k, remainder = divmod(prime - 1, 2 * factor)
    return (remainder == 0 and factor * factor > prime
            and pow(2, prime - 1, prime) == 1
            and math.gcd(pow(2, 2 * k, prime) - 1, prime) == 1)


def _certified_prime(bits: int, rng: DeterministicRandom) -> tuple[int, int]:
    """A prime ``p`` of ``bits`` bits, at least ``3 * 2**(bits-2)``, and its
    certifying factor ``q``.

    ``q`` is a probable prime of ``bits // 2 + 1`` bits, so ``q**2 > p``,
    and ``p = 2kq + 1`` for a DRBG-drawn ``k``. Whenever ``q`` is prime,
    Pocklington's theorem proves ``p`` prime: the one probabilistic test
    is the Miller-Rabin on the half-size ``q``.
    """
    factor = _generate_prime(bits // 2 + 1, rng)
    step = 2 * factor
    # The k for which 3 * 2**(bits-2) <= k * step + 1 < 2**bits.
    low = -(-((3 << (bits - 2)) - 1) // step)
    high = ((1 << bits) - 2) // step
    while True:
        prime = rng.randint(low, high) * step + 1
        if (math.gcd(prime, _SIEVE_PRODUCT) == 1
                and _pocklington_certifies(prime, factor)):
            return prime, factor


def _prime_pair(bits: int, rng: DeterministicRandom
                ) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two distinct primes of a ``bits``-bit modulus, each with its
    certifying factor, such that ``_EXPONENT`` is invertible mod phi."""
    while True:
        p = _certified_prime(bits // 2, rng)
        q = _certified_prime(bits - bits // 2, rng)
        if p[0] != q[0] and (p[0] - 1) * (q[0] - 1) % _EXPONENT != 0:
            return p, q


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
        (p, _), (q, _) = _prime_pair(bits, rng)
        totient = (p - 1) * (q - 1)
        modulus = p * q
        private_exponent = _modular_inverse(_EXPONENT, totient)
        public = PublicKey(modulus=modulus, exponent=_EXPONENT)
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
