"""Digital signatures: textbook RSA full-domain-hash over SHA-256.

Pure-Python RSA gives the reproduction *real* public-key verification — a
verifier holding only the public key can check a signature, and nothing in
the simulation can forge one without the private exponent. Keys default to
768 bits: far too small for production (the paper's PALAEMON uses Ed25519)
but computationally honest and fast enough to generate thousands of keys in
a test run.

Each prime is proven prime, not just tested: ``p = 2kq + 1`` is certified
by Pocklington's theorem from a prime ``q`` of just over half its size,
and ``q`` is itself built and certified the same way, down to a base
case of at most 81 bits that a deterministic strong-probable-prime test
over the first 13 prime bases decides exactly (Maurer's provable primes;
the Shawe-Taylor routine of FIPS 186-4 Appendix C.6). No randomized
primality test is involved, and an accepted ``p`` costs one
exponentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.primitives import DeterministicRandom, sha256
from repro.errors import SignatureError

DEFAULT_KEY_BITS = 768

#: The first 13 primes. An odd number that is a strong probable prime to
#: all of them and below psi_13 = 3,317,044,064,679,887,385,961,981 is
#: prime (Sorenson & Webster, Math. Comp. 2017); psi_13 > 2**81.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BASE_CASE_BITS = 81


def _odd_primes_product(low: int, high: int) -> int:
    """The product of the odd primes in ``[low, high)``, by the sieve of
    Eratosthenes."""
    sieve = bytearray([1]) * high
    for n in range(3, math.isqrt(high) + 1, 2):
        if sieve[n]:
            sieve[n * n::2 * n] = bytes(len(range(n * n, high, 2 * n)))
    return math.prod(n for n in range(low | 1, high, 2) if sieve[n])


#: A candidate sharing a factor with the odd primes below 1,000, or with
#: those from 1,000 up to ``_SIEVE_BOUND``, is rejected by a gcd before any
#: exponentiation; the second, larger product is tried only on the
#: candidates the first lets through. Of the bounds 2,048 to 65,536,
#: 4,096 to 16,384 generated 512- and 768-bit keys fastest, within the
#: noise of each other; 65,536 was slower than one stage alone.
_SIEVE_BOUND = 16384
_SIEVE_BELOW_1000 = _odd_primes_product(3, 1000)
_SIEVE_TO_BOUND = _odd_primes_product(1000, _SIEVE_BOUND)
_EXPONENT = 65537


def _is_strong_probable_prime(candidate: int) -> bool:
    """Miller's strong test of ``candidate`` to every base in ``_BASES``.

    Exact below psi_13 (> 2**81); psi_13 itself passes, so callers keep
    to at most ``_BASE_CASE_BITS`` bits.
    """
    if candidate < 2:
        return False
    for base in _BASES:
        if candidate % base == 0:
            return candidate == base
    # Write candidate - 1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _BASES:
        x = pow(base, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _base_case_prime(bits: int, rng: DeterministicRandom) -> int:
    """A random prime of ``bits <= _BASE_CASE_BITS`` bits whose top two
    bits are set, decided by the deterministic strong test."""
    if bits > _BASE_CASE_BITS:
        raise ValueError(f"the strong test over {len(_BASES)} bases is "
                         f"exact only up to {_BASE_CASE_BITS} bits")
    while True:
        candidate = int.from_bytes(rng.bytes((bits + 7) // 8), "big")
        candidate &= (1 << bits) - 1
        candidate |= (3 << (bits - 2)) | 1
        if _is_strong_probable_prime(candidate):
            return candidate


def _pocklington_certifies(prime: int, factor: int) -> bool:
    """True iff ``factor`` (taken as prime) proves ``prime`` prime.

    Pocklington: if ``prime - 1 = 2k * factor`` with ``factor`` prime and
    ``factor**2 > prime``, a witness ``a`` with ``a^(prime-1) = 1`` and
    ``gcd(a^(2k) - 1, prime) = 1`` leaves ``prime`` no prime divisor at
    most its square root. The witness is 2, and ``2^(prime-1)`` is
    computed as ``(2^(2k))^factor``.
    """
    k, remainder = divmod(prime - 1, 2 * factor)
    if remainder or factor * factor <= prime:
        return False
    power = pow(2, 2 * k, prime)
    return (pow(power, factor, prime) == 1
            and math.gcd(power - 1, prime) == 1)


def _certified_prime(bits: int, rng: DeterministicRandom) -> tuple[int, ...]:
    """A prime of ``bits`` bits, at least ``3 * 2**(bits-2)``, with its
    certificate chain.

    The chain is ``(p, q, ..., base)``. Each entry after the first has
    ``b // 2 + 1`` bits, where ``b`` is the size of the entry before, so
    its square exceeds that entry, and Pocklington's theorem proves that
    entry prime from it (``p = 2kq + 1`` for a DRBG-drawn ``k``). The last
    entry has at most ``_BASE_CASE_BITS`` bits and passed the
    deterministic strong test.
    """
    if bits <= _BASE_CASE_BITS:
        return (_base_case_prime(bits, rng),)
    chain = _certified_prime(bits // 2 + 1, rng)
    step = 2 * chain[0]
    # The k for which 3 * 2**(bits-2) <= k * step + 1 < 2**bits.
    low = -(-((3 << (bits - 2)) - 1) // step)
    high = ((1 << bits) - 2) // step
    while True:
        prime = rng.randint(low, high) * step + 1
        if (math.gcd(prime, _SIEVE_BELOW_1000) == 1
                and math.gcd(prime, _SIEVE_TO_BOUND) == 1
                and _pocklington_certifies(prime, chain[0])):
            return (prime,) + chain


def _prime_pair(bits: int, rng: DeterministicRandom
                ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two distinct primes of a ``bits``-bit modulus, each with its
    certificate chain, such that ``_EXPONENT`` is invertible mod phi."""
    while True:
        p = _certified_prime(bits // 2, rng)
        q = _certified_prime(bits - bits // 2, rng)
        if p[0] != q[0] and (p[0] - 1) * (q[0] - 1) % _EXPONENT != 0:
            return p, q


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

    def to_bytes(self) -> bytes:
        n_bytes = self.modulus.to_bytes((self.modulus.bit_length() + 7) // 8,
                                        "big")
        e_bytes = self.exponent.to_bytes(4, "big")
        return len(n_bytes).to_bytes(2, "big") + n_bytes + e_bytes

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
        (p, *_), (q, *_) = _prime_pair(bits, rng)
        totient = (p - 1) * (q - 1)
        modulus = p * q
        private_exponent = pow(_EXPONENT, -1, totient)
        public = PublicKey(modulus=modulus, exponent=_EXPONENT)
        private = SigningKey(
            modulus=modulus, private_exponent=private_exponent,
            prime_p=p, prime_q=q,
            exponent_p=private_exponent % (p - 1),
            exponent_q=private_exponent % (q - 1),
            coefficient=pow(q, -1, p))
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
