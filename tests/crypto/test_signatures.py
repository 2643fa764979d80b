"""Tests for RSA-FDH signatures."""

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
        assert prime % 2 == 1


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
def sized_key_pair(request):
    return KeyPair.generate(DeterministicRandom(b"crt-pin"),
                            bits=request.param)


#: SHA-256 of the public key and of the signature on ``b"pinned message"``
#: for ``KeyPair.generate(DeterministicRandom(b"crt-pin"), bits)``, recorded
#: with full-modulus ``pow(m, d, n)`` signing: key generation draws the same
#: DRBG bytes and CRT signing yields the same signature.
PINNED_KEYS = {
    512: ("a306b9dc9fd0467e2249312cfdaf2136b6b19e4baecc044b25b5a267933113af",
          "022527406dc245d5b9082a48e1db93f0e5dea75fbd6d406fbba509747d119510"),
    768: ("f1913e59243bc9ced06c039c3d9f46ec6aa215cc283c1ceddec62efbafd09eab",
          "52ed6a2d5e02fddb7e11e3cb3ba1455b917a5d05b7b107fded5b8ab7b799f129"),
}


class TestCrtSigning:
    def test_key_and_signature_match_the_pinned_reference(self,
                                                          sized_key_pair):
        bits = sized_key_pair.public.modulus.bit_length()
        public_digest, signature_digest = PINNED_KEYS[bits]
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
        # Digests recorded before signing used the CRT parameters.
        assert sha256(value.value).hex() == (
            "4be0f7eadff60d3ee01b60f50e86756c235ba144d66628c71ecd643e34524d3f")
        assert sha256(value.certificate.signature).hex() == (
            "bca8ebac1bfdf33c48ba45c93fc60a7fbec811aa4d51b054714f9f3215d1cbcc")
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
