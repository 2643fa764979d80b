"""Digital signatures: textbook RSA full-domain-hash over SHA-256.

Pure-Python RSA gives the reproduction *real* public-key verification — a
verifier holding only the public key can check a signature, and nothing in
the simulation can forge one without the private exponent. Keys default to
768 bits: far too small for production (the paper's PALAEMON uses Ed25519)
but computationally honest and fast enough to generate thousands of keys in
a test run.

Every modulus is the product of four distinct primes of about a quarter of
its size each (multi-prime RSA, RFC 8017 §3.2). The public key, the
private exponent ``d = e^-1 mod phi(n)`` and the signature
``pow(FDH(m), d, n)`` are those of any RSA key; only signing is cheaper,
because :meth:`SigningKey.sign` runs four quarter-size exponentiations and
recombines them by the Chinese remainder theorem.

Each prime is proven prime, not just tested: ``p = 2kq + 1`` is certified
by Pocklington's theorem from a prime ``q`` of just over half its size,
and ``q`` is itself built and certified the same way, down to a base
case of at most 40 bits that the strong-probable-prime test to the bases
2, 3, 5, 7 and 11 decides exactly (Maurer's provable primes; the
Shawe-Taylor routine of FIPS 186-4 Appendix C.6). As in that routine,
each level of the chain takes one DRBG draw for its starting point and
then steps through its range (``k + 1``, or ``candidate + 2`` in the base
case), wrapping from the top of the range to its bottom. No randomized
primality test is involved, and an accepted ``p`` costs one
exponentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.primitives import DeterministicRandom, sha256
from repro.errors import SignatureError

DEFAULT_KEY_BITS = 768

#: The first 5 primes. An odd number that is a strong probable prime to
#: all of them and below psi_5 = 2,152,302,898,747 is prime (Jaeschke,
#: Math. Comp. 1993); psi_5 > 2**40.
_BASES = (2, 3, 5, 7, 11)
_BASE_CASE_BITS = 40


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
#: candidates the first lets through. ``KeyPair.generate`` in ms per key
#: (median of 9 interleaved passes over 100 512-bit and 40 768-bit seeds,
#: process time, 2-vCPU shared VM; two runs each):
#:
#:   bound     512-bit      768-bit
#:   1,000     3.28  2.62   7.91  6.36   (second stage off)
#:   2,048     3.20  2.62   7.74  6.35
#:   4,096     3.16  2.49   7.40  6.16
#:   8,192     3.28  2.74   7.55  6.33
#:   16,384    3.67  3.11   8.13  6.81
#:
#: One gcd against the 4,431-bit product to 4,096 costs about 4 us; one
#: against the 22,072-bit product to 16,384 costs about 15 us, more than
#: the Pocklington tests its extra primes save.
_SIEVE_BOUND = 4096
_SIEVE_BELOW_1000 = _odd_primes_product(3, 1000)
_SIEVE_TO_BOUND = _odd_primes_product(1000, _SIEVE_BOUND)
_EXPONENT = 65537
#: Primes per modulus. Four keep every prime of a 512-bit key at 128 bits;
#: a 768-bit signature took 0.43 ms with three, 0.36 ms with four and
#: 0.30 ms with six (docs/PERFORMANCE.md, "Signing: four-prime keys").
_PRIME_COUNT = 4


def _is_strong_probable_prime(candidate: int) -> bool:
    """Miller's strong test of ``candidate`` to every base in ``_BASES``.

    Exact below psi_5 (> 2**40); psi_5 itself passes, so callers keep
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
    """A random prime of ``bits <= _BASE_CASE_BITS`` bits whose top three
    bits are set, decided by the deterministic strong test.

    One DRBG draw picks the first odd candidate; the search then steps by
    2, wrapping from the top of the range to its bottom.
    """
    if bits > _BASE_CASE_BITS:
        raise ValueError(f"the strong test over {len(_BASES)} bases is "
                         f"exact only up to {_BASE_CASE_BITS} bits")
    low, high = (7 << (bits - 3)) | 1, (1 << bits) - 1
    candidate = int.from_bytes(rng.bytes((bits + 7) // 8), "big")
    candidate = (candidate & high) | low
    while not _is_strong_probable_prime(candidate):
        candidate = candidate + 2 if candidate < high else low
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
    """A prime of ``bits`` bits, at least ``7 * 2**(bits-3)``, with its
    certificate chain.

    Every entry of the chain ``(p, q, ..., base)`` has its top three bits
    set. Each entry after the first has ``b // 2 + 1`` bits, where ``b`` is
    the size of the entry before, so its square exceeds that entry, and
    Pocklington's theorem proves that entry prime from it
    (``p = 2kq + 1``, ``k`` drawn once and then stepped by 1, wrapping
    within its range). The last entry has at most ``_BASE_CASE_BITS``
    bits and passed the deterministic strong test.
    """
    if bits <= _BASE_CASE_BITS:
        return (_base_case_prime(bits, rng),)
    chain = _certified_prime(bits // 2 + 1, rng)
    step = 2 * chain[0]
    # The k for which 7 * 2**(bits-3) <= k * step + 1 < 2**bits.
    low = -(-((7 << (bits - 3)) - 1) // step)
    high = ((1 << bits) - 2) // step
    k = rng.randint(low, high)
    while True:
        prime = k * step + 1
        if (math.gcd(prime, _SIEVE_BELOW_1000) == 1
                and math.gcd(prime, _SIEVE_TO_BOUND) == 1
                and _pocklington_certifies(prime, chain[0])):
            return (prime,) + chain
        k = k + 1 if k < high else low


def _primes(bits: int, rng: DeterministicRandom
            ) -> tuple[tuple[int, ...], ...]:
    """The ``_PRIME_COUNT`` distinct primes of a ``bits``-bit modulus, each
    with its certificate chain, such that ``_EXPONENT`` is invertible mod
    phi.

    The sizes are ``bits // _PRIME_COUNT``, the first ``bits %
    _PRIME_COUNT`` of them one bit larger. Each prime is at least 7/8 of
    ``2**size`` and (7/8)**4 > 1/2, so the product has exactly ``bits``
    bits.
    """
    chains: list[tuple[int, ...]] = []
    while len(chains) < _PRIME_COUNT:
        size = bits // _PRIME_COUNT + (len(chains) < bits % _PRIME_COUNT)
        chain = _certified_prime(size, rng)
        if ((chain[0] - 1) % _EXPONENT != 0
                and all(chain[0] != other[0] for other in chains)):
            chains.append(chain)
    return tuple(chains)


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

    Besides ``d`` itself the key keeps its primes ``r_1, ..., r_4``, the
    exponents ``d mod (r_i - 1)`` and, for ``i > 1``, the coefficients
    ``(r_1 * ... * r_(i-1))^-1 mod r_i`` (RFC 8017 §3.2), so :meth:`sign`
    does four quarter-size exponentiations instead of one full-modulus
    ``pow(m, d, n)``: the same signature for a fraction of the work.
    """

    modulus: int
    private_exponent: int
    primes: tuple[int, ...]
    exponents: tuple[int, ...]
    coefficients: tuple[int, ...]

    def sign(self, message: bytes) -> bytes:
        """Produce an RSA-FDH signature over ``message``.

        Garner's rule lifts ``m^d mod r_1`` one prime at a time to
        ``m^d mod r_1 * ... * r_i``; the last step gives ``m^d mod n`` for
        every ``m`` in ``Z_n``, so the bytes are those of the textbook
        ``pow(m, d, n)``.
        """
        digest = _full_domain_hash(message, self.modulus)
        signature = pow(digest, self.exponents[0], self.primes[0])
        product = self.primes[0]
        for prime, exponent, coefficient in zip(
                self.primes[1:], self.exponents[1:], self.coefficients):
            residue = pow(digest, exponent, prime)
            signature += product * ((residue - signature) * coefficient
                                    % prime)
            product *= prime
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
        primes = tuple(chain[0] for chain in _primes(bits, rng))
        modulus = math.prod(primes)
        private_exponent = pow(_EXPONENT, -1,
                               math.prod(prime - 1 for prime in primes))
        public = PublicKey(modulus=modulus, exponent=_EXPONENT)
        private = SigningKey(
            modulus=modulus, private_exponent=private_exponent,
            primes=primes,
            exponents=tuple(private_exponent % (prime - 1)
                            for prime in primes),
            coefficients=tuple(pow(math.prod(primes[:i]), -1, primes[i])
                               for i in range(1, len(primes))))
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
