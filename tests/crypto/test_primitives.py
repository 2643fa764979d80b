"""Tests for hashing, HKDF, and the deterministic DRBG."""

import hashlib
import hmac as stdlib_hmac
import math

import pytest
from hypothesis import given, strategies as st

from repro.crypto.primitives import (
    DeterministicRandom,
    constant_time_equal,
    hkdf,
    hmac_sha256,
    hmac_sha256_states,
    sha256,
)
from repro.crypto.symmetric import KEY_SIZE, AEADCipher


class TestSha256:
    def test_concatenation_equivalence(self):
        assert sha256(b"ab", b"cd") == sha256(b"abcd")

    def test_known_empty_digest(self):
        assert sha256().hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

    def test_distinct_inputs_distinct_digests(self):
        assert sha256(b"a") != sha256(b"b")


class TestHmac:
    def test_key_separates(self):
        assert hmac_sha256(b"k1", b"msg") != hmac_sha256(b"k2", b"msg")

    def test_message_separates(self):
        assert hmac_sha256(b"k", b"m1") != hmac_sha256(b"k", b"m2")

    def test_multi_part_concatenation(self):
        assert hmac_sha256(b"k", b"a", b"b") == hmac_sha256(b"k", b"ab")


class TestConstantTimeEqual:
    def test_equal(self):
        assert constant_time_equal(b"same", b"same")

    def test_unequal(self):
        assert not constant_time_equal(b"same", b"diff")

    def test_length_mismatch(self):
        assert not constant_time_equal(b"short", b"longer")


class TestHkdf:
    def test_length_control(self):
        for length in (1, 16, 32, 33, 64, 100):
            assert len(hkdf(b"ikm", b"info", length)) == length

    def test_info_separates_keys(self):
        assert hkdf(b"ikm", b"a") != hkdf(b"ikm", b"b")

    def test_salt_separates_keys(self):
        assert hkdf(b"ikm", b"i", salt=b"s1") != hkdf(b"ikm", b"i", salt=b"s2")

    def test_deterministic(self):
        assert hkdf(b"ikm", b"info") == hkdf(b"ikm", b"info")

    def test_prefix_property(self):
        assert hkdf(b"ikm", b"info", 64)[:32] == hkdf(b"ikm", b"info", 32)

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            hkdf(b"ikm", b"info", 0)
        with pytest.raises(ValueError):
            hkdf(b"ikm", b"info", 255 * 32 + 1)


class TestDeterministicRandom:
    def test_reproducible_from_seed(self):
        a = DeterministicRandom(b"seed")
        b = DeterministicRandom(b"seed")
        assert a.bytes(100) == b.bytes(100)

    def test_different_seeds_diverge(self):
        assert (DeterministicRandom(b"s1").bytes(32)
                != DeterministicRandom(b"s2").bytes(32))

    def test_stream_advances(self):
        rng = DeterministicRandom(b"seed")
        assert rng.bytes(32) != rng.bytes(32)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRandom(b"")

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRandom(b"s").bytes(-1)

    def test_fork_independence(self):
        rng = DeterministicRandom(b"seed")
        child_a = rng.fork(b"a")
        child_b = rng.fork(b"b")
        assert child_a.bytes(32) != child_b.bytes(32)

    def test_fork_does_not_consume_parent_stream(self):
        plain = DeterministicRandom(b"seed")
        forked = DeterministicRandom(b"seed")
        forked.fork(b"child")
        assert plain.bytes(32) == forked.bytes(32)

    @given(st.integers(-1000, 1000), st.integers(0, 500))
    def test_randint_in_range(self, low, span):
        rng = DeterministicRandom(b"hyp")
        value = rng.randint(low, low + span)
        assert low <= value <= low + span

    def test_randint_invalid_range(self):
        with pytest.raises(ValueError):
            DeterministicRandom(b"s").randint(5, 4)

    def test_randint_covers_range(self):
        rng = DeterministicRandom(b"cover")
        seen = {rng.randint(0, 3) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_random_unit_interval(self):
        rng = DeterministicRandom(b"float")
        for _ in range(100):
            assert 0.0 <= rng.random() < 1.0

    def test_expovariate_mean(self):
        rng = DeterministicRandom(b"exp")
        samples = [rng.expovariate(10.0) for _ in range(5000)]
        mean = sum(samples) / len(samples)
        assert math.isclose(mean, 0.1, rel_tol=0.1)

    def test_expovariate_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            DeterministicRandom(b"s").expovariate(0.0)

    def test_shuffle_is_permutation(self):
        rng = DeterministicRandom(b"shuffle")
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity


# -- byte-identity pins ---------------------------------------------------
#
# Recorded from the stdlib-``hmac`` implementation of ``hmac_sha256``, so a
# faster HMAC, HKDF or DRBG must reproduce every byte.

def _pattern_key(size):
    return bytes((7 * i + 3) % 256 for i in range(size))


HMAC_KNOWN_ANSWERS = {
    0: "b424cd4c181ebd5a329c1c41a84935f9268171f103a784597f52bd96ede93271",
    32: "8f909fe1b8c59fe220049331632d58e657b5dcf7539d7b98f085c5d156165180",
    64: "a73f13b9e1f5f476edd19c9f32155d3bbf7787622f391a4c9c9e089dbd233f24",
    65: "991f4abff2c74bb8408643ac170bd035549434243f4be306374d1d6e62e631f3",
    131: "c0df25115d395b0456ed6ffa543ac70c13fd0b88fb78d2c3596911a3ab0da247",
}

_HKDF_100 = (
    "df0b64226c592b8cf5840c938127e64cc3edcb1a2f05d866c633c91c1a3df1a7"
    "ffdc4a03af90722bcc1047a18c968d83aa8ca4812430136a7b0f7b991c0384ac"
    "a41459adb287f3c7ec00284c4bc96e774c2d9573054ecc715bec608e28e73aa7"
    "301e40e4")
_HKDF_SALTED_100 = (
    "55e906cde65145a29218620e9e34b7fcdae07a38258f17cc9f16cbe6b2ed5ba6"
    "35504a5eea960c70c4801d00d6f62111a7dcd16465a6f244681468bf90b4d157"
    "d1084322cc10d16f784b0a27aeaf4a2e597c81ac28bcd5fccac30b531008c1e1"
    "a72c2800")

DRBG_KNOWN_ANSWERS = [
    (0, ""),
    (1, "07"),
    (31, "62741f09a92467e57fffcb3523e794d560759ebd068dabdc07bd4456f52967"),
    (32, "39a031c43d8d41dae468bb391374ef2a8794beddec047e2347c9fb442336d076"),
    (33, "2e0c477c24b9ddf3c05f58ade2a14b8a32701427f6e397df55cf6240c3e0ca"
         "fd49"),
    (100, "ba7a02942782d575d165758ba5b11f5a02ab791cd0ec8b736cdbefa0e47698"
          "5b1d277cc6a79629447f4a0101d2dde30ae27857ef35a9b111a9e821150f52"
          "78b5cb7368fe5cb06d5080120100992280a1c39cd4862fd7fb7faf637b257c"
          "73759f16277938"),
]


class TestKnownAnswers:
    @pytest.mark.parametrize("key_size", sorted(HMAC_KNOWN_ANSWERS))
    def test_hmac_sha256(self, key_size):
        digest = hmac_sha256(_pattern_key(key_size), b"nonce", b"",
                             b"body-part")
        assert digest.hex() == HMAC_KNOWN_ANSWERS[key_size]

    @pytest.mark.parametrize("length", [1, 32, 33, 64, 100])
    def test_hkdf(self, length):
        ikm = b"input keying material"
        assert hkdf(ikm, b"info", length).hex() == _HKDF_100[:2 * length]
        assert (hkdf(ikm, b"info", length, salt=b"salt").hex()
                == _HKDF_SALTED_100[:2 * length])

    def test_deterministic_random(self):
        rng = DeterministicRandom(b"known-answer-seed")
        for length, expected in DRBG_KNOWN_ANSWERS:
            assert rng.bytes(length).hex() == expected
        assert [rng.randint(0, 1000) for _ in range(5)] == [
            923, 850, 707, 392, 31]
        assert rng.randint(10**30, 10**31) == 5513605787334430699890389770360
        child = rng.fork(b"child")
        assert child.bytes(32).hex() == (
            "d32bc4c76753faf746760e1310c49b5a237998e22c416685b12f71be1ceaed51")
        assert rng.bytes(8).hex() == "41acbf09e165a155"


class TestKeyedMacMatchesStdlib:
    @given(key=st.binary(min_size=0, max_size=200),
           nonce=st.binary(min_size=16, max_size=16),
           associated_data=st.binary(max_size=80),
           body=st.binary(max_size=300))
    def test_keyed_states_equal_hmac_new(self, key, nonce, associated_data,
                                         body):
        """The AEAD's keyed MAC states, and ``hmac_sha256`` built on them,
        agree with the stdlib for keys shorter and longer than a block."""
        message = nonce + associated_data + body
        reference = stdlib_hmac.new(key, message, hashlib.sha256).digest()
        cipher = AEADCipher(bytes(KEY_SIZE))
        cipher._mac_inner, cipher._mac_outer = hmac_sha256_states(key)
        assert cipher._mac(nonce, associated_data, body) == reference
        assert hmac_sha256(key, nonce, associated_data, body) == reference
