"""Tests for RSA-FDH signatures."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.secrets import SecretKind, SecretSpec, materialize
from repro.core.service import _decode_identity, _encode_identity
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.signatures import (
    KeyPair,
    verify_signature,
    _BASE_CASE_BITS,
    _BASES,
    _base_case_prime,
    _certified_prime,
    _full_domain_hash,
    _is_strong_probable_prime,
    _pocklington_certifies,
    _primes,
)
from repro.errors import SignatureError


@pytest.fixture(scope="module")
def key_pair():
    return KeyPair.generate(DeterministicRandom(b"sig-test"), bits=512)


@pytest.fixture(scope="module")
def other_key_pair():
    return KeyPair.generate(DeterministicRandom(b"sig-other"), bits=512)


def strong_probable_prime(n, base):
    """Miller's strong test of the odd ``n > 3`` to one ``base``."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def independently_prime(n):
    """Miller-Rabin with 40 witnesses from a DRBG no key is drawn from."""
    if n < 4 or n % 2 == 0:
        return n in (2, 3)
    witnesses = DeterministicRandom(b"audit-witnesses")
    return all(strong_probable_prime(n, witnesses.randint(2, n - 2))
               for _ in range(40))


#: psi_4 and psi_5: the least odd composites that are strong probable
#: primes to the first 4 and the first 5 primes (Jaeschke 1993).
PSI_4 = 3_215_031_751
PSI_5 = 2_152_302_898_747


class TopOfRange(DeterministicRandom):
    """A DRBG stub whose every draw is the top of the range asked for."""

    def bytes(self, length):
        return b"\xff" * length

    def randint(self, low, high):
        return high


class TestPrimality:
    def test_known_primes(self):
        for prime in (2, 3, 5, 7, 41, 97, 101, 104729, 2**40 - 87,
                      2**61 - 1, 2**64 - 59):
            assert independently_prime(prime), prime
            assert _is_strong_probable_prime(prime), prime

    def test_known_composites(self):
        for composite in (0, 1, 4, 100, 104730,
                          561, 41041,  # Carmichael numbers
                          PSI_4):
            assert not independently_prime(composite), composite
            assert not _is_strong_probable_prime(composite), composite

    def test_agrees_with_a_sieve_below_2_to_the_20(self):
        limit = 1 << 20
        sieve = bytearray([1]) * limit
        sieve[0] = sieve[1] = 0
        for n in range(2, math.isqrt(limit) + 1):
            if sieve[n]:
                sieve[n * n::n] = bytes(len(range(n * n, limit, n)))
        assert [n for n in range(limit)
                if _is_strong_probable_prime(n) != sieve[n]] == []

    def test_psi_4_is_refused_only_by_base_11(self):
        assert PSI_4 == 151 * 751 * 28_351
        assert [base for base in _BASES
                if not strong_probable_prime(PSI_4, base)] == [11]

    def test_psi_5_fools_every_base_so_the_base_case_stops_below_it(self):
        assert PSI_5 == 6_763 * 10_627 * 29_947
        assert all(strong_probable_prime(PSI_5, base) for base in _BASES)
        assert _is_strong_probable_prime(PSI_5)
        assert PSI_5.bit_length() == _BASE_CASE_BITS + 1
        assert PSI_5 > 2**_BASE_CASE_BITS

    def test_base_case_generator_refuses_more_than_40_bits(self):
        with pytest.raises(ValueError):
            _base_case_prime(_BASE_CASE_BITS + 1, DeterministicRandom(b"b"))

    @pytest.mark.parametrize("bits", [33, _BASE_CASE_BITS])
    def test_base_case_prime_size(self, bits):
        prime = _base_case_prime(bits, DeterministicRandom(b"gen"))
        assert prime.bit_length() == bits
        assert prime >> (bits - 3) == 0b111
        assert independently_prime(prime)

    @pytest.mark.parametrize("bits", [33, 128, 192])
    def test_search_from_the_top_of_the_range_wraps_to_its_bottom(self,
                                                                 bits):
        chain = _certified_prime(bits, TopOfRange(b"top"))
        for prime in chain:
            size = prime.bit_length()
            assert size == bits and prime >> (size - 3) == 0b111
            # Wrapped: the prime lies in the lower half of the range
            # [7 * 2**(size-3), 2**size) rather than past its top.
            assert prime < (15 << (size - 4))
            assert independently_prime(prime)
            bits = bits // 2 + 1
        for prime, factor in zip(chain, chain[1:]):
            assert certificate_holds(prime, factor)

    def test_generated_prime_size(self):
        prime, *_ = _certified_prime(128, DeterministicRandom(b"gen"))
        assert prime.bit_length() == 128
        assert prime >> 125 == 0b111
        assert independently_prime(prime)


def certificate_holds(prime, factor):
    """Pocklington's test of ``prime`` from ``factor``, written out
    independently of the module: ``prime - 1 = 2k * factor``,
    ``factor**2 > prime``, ``2^(prime-1) = 1`` and
    ``gcd(2^(2k) - 1, prime) = 1``."""
    k, remainder = divmod(prime - 1, 2 * factor)
    return (remainder == 0 and factor * factor > prime
            and pow(2, prime - 1, prime) == 1
            and math.gcd(pow(2, 2 * k, prime) - 1, prime) == 1)


class TestPrimeCertificates:
    @pytest.mark.parametrize("bits", [128, 256, 512, 768])
    def test_modulus_has_exactly_the_requested_size(self, bits):
        for seed in range(200):
            pair = KeyPair.generate(DeterministicRandom(b"size-%d" % seed),
                                    bits=bits)
            assert pair.public.modulus.bit_length() == bits, seed

    @settings(max_examples=25, deadline=None)
    @given(seed=st.binary(min_size=1, max_size=16),
           bits=st.integers(min_value=128, max_value=768))
    def test_every_prime_of_a_key_is_certified(self, seed, bits):
        pair = KeyPair.generate(DeterministicRandom(seed), bits=bits)
        chains = _primes(bits, DeterministicRandom(seed))
        private = pair.private
        primes = private.primes
        assert [chain[0] for chain in chains] == list(primes)
        assert len(primes) == 4
        sizes = [prime.bit_length() for prime in primes]
        assert sum(sizes) == bits and max(sizes) - min(sizes) <= 1
        for chain, size in zip(chains, sizes):
            for prime in chain:
                assert prime.bit_length() == size
                assert prime >> (size - 3) == 0b111
                assert independently_prime(prime)
                size = size // 2 + 1
            for prime, factor in zip(chain, chain[1:]):
                assert certificate_holds(prime, factor)
                assert _pocklington_certifies(prime, factor)
            base = chain[-1]
            assert base.bit_length() <= _BASE_CASE_BITS
            assert _is_strong_probable_prime(base)
            assert len(chain) == 1 or chain[-2].bit_length() > _BASE_CASE_BITS
        assert len(set(primes)) == 4
        assert math.prod(primes) == private.modulus == pair.public.modulus
        d, e = private.private_exponent, pair.public.exponent
        for prime in primes:
            assert math.gcd(e, prime - 1) == 1
        totient = math.prod(prime - 1 for prime in primes)
        assert e * d % totient == 1
        assert list(private.exponents) == [d % (prime - 1)
                                           for prime in primes]
        assert len(private.coefficients) == 3
        for i, coefficient in enumerate(private.coefficients, start=1):
            assert coefficient * math.prod(primes[:i]) % primes[i] == 1

    @pytest.mark.parametrize("check", [certificate_holds,
                                       _pocklington_certifies])
    def test_composite_is_refused(self, check):
        # 975 = 2*1*487 + 1 = 3 * 5^2 * 13 fails the Fermat test.
        assert not check(975, 487)
        # 23377 = 97 * 241 = 2*24*487 + 1 is a base-2 Fermat pseudoprime
        # with 487^2 > 23377; only the gcd condition refuses it.
        assert pow(2, 23376, 23377) == 1
        assert not check(23377, 487)

    @pytest.mark.parametrize("check", [certificate_holds,
                                       _pocklington_certifies])
    def test_factor_below_the_square_root_is_refused(self, check):
        # A prime 2kq + 1 whose q^2 < p: the arithmetic conditions hold,
        # but they no longer prove anything.
        factor, k = 3_736_910_713, 1_099_511_627_795
        prime = 2 * k * factor + 1
        assert independently_prime(prime) and independently_prime(factor)
        assert pow(2, prime - 1, prime) == 1
        assert math.gcd(pow(2, 2 * k, prime) - 1, prime) == 1
        assert not check(prime, factor)


class TestSignatures:
    def test_sign_verify_round_trip(self, key_pair):
        signature = key_pair.sign(b"message")
        assert verify_signature(key_pair.public, b"message", signature)

    def test_verify_raises_on_forgery(self, key_pair):
        with pytest.raises(SignatureError):
            key_pair.public.verify(b"message", b"\x00" * 64)

    def test_wrong_message_rejected(self, key_pair):
        signature = key_pair.sign(b"message")
        assert not verify_signature(key_pair.public, b"other", signature)

    def test_wrong_key_rejected(self, key_pair, other_key_pair):
        signature = key_pair.sign(b"message")
        assert not verify_signature(other_key_pair.public, b"message",
                                    signature)

    def test_tampered_signature_rejected(self, key_pair):
        signature = bytearray(key_pair.sign(b"message"))
        signature[0] ^= 1
        assert not verify_signature(key_pair.public, b"message",
                                    bytes(signature))

    def test_wrong_length_signature_rejected(self, key_pair):
        signature = key_pair.sign(b"message")
        assert not verify_signature(key_pair.public, b"message",
                                    signature + b"\x00")

    def test_oversized_signature_integer_rejected(self, key_pair):
        nbytes = (key_pair.public.modulus.bit_length() + 7) // 8
        too_big = (key_pair.public.modulus + 1).to_bytes(nbytes, "big")
        assert not verify_signature(key_pair.public, b"message", too_big)

    def test_deterministic_keygen(self):
        a = KeyPair.generate(DeterministicRandom(b"same"), bits=512)
        b = KeyPair.generate(DeterministicRandom(b"same"), bits=512)
        assert a.public == b.public

    def test_distinct_seeds_distinct_keys(self, key_pair, other_key_pair):
        assert key_pair.public != other_key_pair.public

    def test_too_small_key_rejected(self):
        with pytest.raises(ValueError):
            KeyPair.generate(DeterministicRandom(b"s"), bits=64)

    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=256))
    def test_round_trip_property(self, message):
        pair = KeyPair.generate(DeterministicRandom(b"hyp-fixed"), bits=512)
        assert verify_signature(pair.public, message, pair.sign(message))


class TestPublicKeySerialization:
    def test_hashable(self, key_pair, other_key_pair):
        registry = {key_pair.public: "a", other_key_pair.public: "b"}
        assert registry[key_pair.public] == "a"


@pytest.fixture(scope="module", params=[512, 768])
def key_bits(request):
    return request.param


@pytest.fixture(scope="module")
def sized_key_pair(key_bits):
    return KeyPair.generate(DeterministicRandom(b"crt-pin"), bits=key_bits)


#: SHA-256 of the public key and of the signature on ``b"pinned message"``
#: for ``KeyPair.generate(DeterministicRandom(b"crt-pin"), bits)``, keyed by
#: the requested size. Recorded when every modulus was the product of four
#: primes, each with a chain of Pocklington certificates down to a base
#: case of at most 40 bits found by stepping from one DRBG draw per
#: level; the signatures equal full-modulus
#: ``pow(m, d, n)``, which ``test_sign_equals_full_modulus_pow`` checks.
PINNED_KEYS = {
    512: ("482d130af3b8aab5d14df57dee93d584075a7ac2f105b7bf6649b4257c23366b",
          "c96a7d8c67a15a1800ae8b34504550325722ca38bdbd42039c6e428da6def1e4"),
    768: ("78d140d3671cc1a8edf32194291f8805c744ea244db2cbfacec9d699dfee798f",
          "89d8d44f7a13a2752e3dd95fabd8321239d9bc233c27e7ba5a71aaaaa04df533"),
}


class TestCrtSigning:
    def test_key_and_signature_match_the_pinned_reference(self, key_bits,
                                                          sized_key_pair):
        public_digest, signature_digest = PINNED_KEYS[key_bits]
        assert sha256(sized_key_pair.public.to_bytes()).hex() == public_digest
        assert (sha256(sized_key_pair.sign(b"pinned message")).hex()
                == signature_digest)

    @settings(max_examples=40, deadline=None)
    @given(message=st.binary(max_size=512))
    def test_sign_equals_full_modulus_pow(self, sized_key_pair, message):
        private = sized_key_pair.private
        digest = _full_domain_hash(message, private.modulus)
        reference = pow(digest, private.private_exponent, private.modulus)
        nbytes = (private.modulus.bit_length() + 7) // 8
        signature = sized_key_pair.sign(message)
        assert signature == reference.to_bytes(nbytes, "big")
        assert verify_signature(sized_key_pair.public, message, signature)

    @pytest.mark.parametrize("index", range(3))
    def test_a_corrupted_coefficient_signs_what_the_verifier_refuses(
            self, sized_key_pair, index):
        private = sized_key_pair.private
        coefficients = list(private.coefficients)
        coefficients[index] += 1
        broken = dataclasses.replace(private,
                                     coefficients=tuple(coefficients))
        signature = broken.sign(b"pinned message")
        assert signature != private.sign(b"pinned message")
        assert not verify_signature(sized_key_pair.public, b"pinned message",
                                    signature)

    def test_x509_secret_is_the_private_exponent(self):
        value = materialize(
            SecretSpec(name="TLS_KEY", kind=SecretKind.X509,
                       common_name="svc"),
            DeterministicRandom(b"x509-pin"), now=0.0)
        assert sha256(value.value).hex() == (
            "4da115e8705356812bb080a4641f2900bc1f9b6f65f41a60dcf0ee85e8fddc93")
        assert sha256(value.certificate.signature).hex() == (
            "342a974e731ff7f9d3b4778a848d7f4e59f3ba3b2d85acd22bba17e11c95e257")
        public = value.certificate.public_key
        d = int.from_bytes(value.value, "big")
        assert pow(pow(12345, public.exponent, public.modulus), d,
                   public.modulus) == 12345

    def test_pickled_service_identity_round_trips(self):
        identity = KeyPair.generate(DeterministicRandom(b"identity"))
        restored, db_key = _decode_identity(
            _encode_identity(identity, b"k" * 32))
        assert restored == identity and db_key == b"k" * 32
        assert restored.sign(b"config") == identity.sign(b"config")
