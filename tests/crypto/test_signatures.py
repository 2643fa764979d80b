"""Tests for RSA-FDH signatures."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.secrets import SecretKind, SecretSpec, materialize
from repro.core.service import _decode_identity, _encode_identity
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.signatures import (
    KeyPair,
    PublicKey,
    verify_signature,
    _full_domain_hash,
    _generate_prime,
    _is_probable_prime,
    _modular_inverse,
    _pocklington_certifies,
    _prime_pair,
)
from repro.errors import SignatureError


@pytest.fixture(scope="module")
def key_pair():
    return KeyPair.generate(DeterministicRandom(b"sig-test"), bits=512)


@pytest.fixture(scope="module")
def other_key_pair():
    return KeyPair.generate(DeterministicRandom(b"sig-other"), bits=512)


class TestPrimality:
    def test_known_primes(self):
        rng = DeterministicRandom(b"prime")
        for prime in (2, 3, 5, 7, 97, 101, 104729):
            assert _is_probable_prime(prime, rng)

    def test_known_composites(self):
        rng = DeterministicRandom(b"prime")
        for composite in (0, 1, 4, 100, 104730, 561, 41041):  # Carmichaels too
            assert not _is_probable_prime(composite, rng)

    def test_generated_prime_size(self):
        rng = DeterministicRandom(b"gen")
        prime = _generate_prime(128, rng)
        assert prime.bit_length() == 128
        assert prime >> 126 == 0b11
        assert prime % 2 == 1


def certificate_holds(prime, factor):
    """Pocklington's test of ``prime`` from ``factor``, written out
    independently of the module: ``prime - 1 = 2k * factor``,
    ``factor**2 > prime``, ``2^(prime-1) = 1`` and
    ``gcd(2^(2k) - 1, prime) = 1``."""
    k, remainder = divmod(prime - 1, 2 * factor)
    return (remainder == 0 and factor * factor > prime
            and pow(2, prime - 1, prime) == 1
            and math.gcd(pow(2, 2 * k, prime) - 1, prime) == 1)


def independently_prime(n):
    """Miller-Rabin with witnesses from a DRBG no key is drawn from."""
    return _is_probable_prime(n, DeterministicRandom(b"audit-witnesses"),
                              rounds=40)


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
        primes = _prime_pair(bits, DeterministicRandom(seed))
        private = pair.private
        assert [prime for prime, _ in primes] == [private.prime_p,
                                                  private.prime_q]
        for (prime, factor), size in zip(primes, (bits // 2,
                                                  bits - bits // 2)):
            assert prime.bit_length() == size
            assert prime >= 3 << (size - 2)
            assert certificate_holds(prime, factor)
            assert _pocklington_certifies(prime, factor)
            assert independently_prime(prime)
            assert independently_prime(factor)
        assert private.prime_p != private.prime_q
        totient = (private.prime_p - 1) * (private.prime_q - 1)
        assert (pair.public.exponent * private.private_exponent) % totient == 1

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


class TestModularInverse:
    def test_inverse(self):
        assert (_modular_inverse(3, 11) * 3) % 11 == 1

    def test_no_inverse(self):
        with pytest.raises(ValueError):
            _modular_inverse(6, 9)


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
    def test_round_trip(self, key_pair):
        restored = PublicKey.from_bytes(key_pair.public.to_bytes())
        assert restored == key_pair.public

    def test_fingerprint_stable_and_distinct(self, key_pair, other_key_pair):
        assert key_pair.public.fingerprint() == key_pair.public.fingerprint()
        assert (key_pair.public.fingerprint()
                != other_key_pair.public.fingerprint())

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
#: the requested size. Recorded when key generation took its primes from
#: Pocklington certificates; the signatures equal full-modulus
#: ``pow(m, d, n)``, which ``test_sign_equals_full_modulus_pow`` checks.
PINNED_KEYS = {
    512: ("1696783987bb02e29372ee6c8f30dbe7be873be108b64f691940245d337bcae5",
          "267532a67339bee6e08db133cbaf5b8a0af73005390a8c7485c1ce356e221d1f"),
    768: ("a8afafb5f974cafe63937809d0a8b9001d7261a796f1b085c6473f2838af7edf",
          "07543d4a9f1507ce726de8b54b51d5edc1baf894f9f9f865b259a1960ec26bc7"),
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

    def test_x509_secret_is_the_private_exponent(self):
        value = materialize(
            SecretSpec(name="TLS_KEY", kind=SecretKind.X509,
                       common_name="svc"),
            DeterministicRandom(b"x509-pin"), now=0.0)
        assert sha256(value.value).hex() == (
            "32666e4639a60ef1776f763e59e612e1a64d425f2e392b68efbb0cc36ac9a781")
        assert sha256(value.certificate.signature).hex() == (
            "5eccc18a6259f9d13fe7387eb91d8f8afb340c09bf64f3dab03bd8bf279029c5")
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
