"""Tests for the AEAD cipher and SecretBox."""

import hashlib
import hmac
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.primitives import DeterministicRandom
from repro.crypto.symmetric import (
    AEADCipher,
    CHUNK_SIZE,
    Ciphertext,
    KEY_SIZE,
    NONCE_SIZE,
    SecretBox,
)
from repro.errors import IntegrityError


def make_cipher(seed=b"key-seed"):
    rng = DeterministicRandom(seed)
    return AEADCipher(rng.bytes(KEY_SIZE)), rng


class TestAEADCipher:
    def test_round_trip(self):
        cipher, rng = make_cipher()
        nonce = rng.bytes(NONCE_SIZE)
        ct = cipher.encrypt(b"hello world", nonce)
        assert cipher.decrypt(ct) == b"hello world"

    def test_ciphertext_hides_plaintext(self):
        cipher, rng = make_cipher()
        plaintext = b"very secret bytes"
        ct = cipher.encrypt(plaintext, rng.bytes(NONCE_SIZE))
        assert plaintext not in ct.body
        assert plaintext not in ct.to_bytes()

    def test_tampered_body_rejected(self):
        cipher, rng = make_cipher()
        ct = cipher.encrypt(b"data", rng.bytes(NONCE_SIZE))
        bad = Ciphertext(nonce=ct.nonce,
                         body=bytes([ct.body[0] ^ 1]) + ct.body[1:],
                         tag=ct.tag)
        with pytest.raises(IntegrityError):
            cipher.decrypt(bad)

    def test_tampered_tag_rejected(self):
        cipher, rng = make_cipher()
        ct = cipher.encrypt(b"data", rng.bytes(NONCE_SIZE))
        bad = Ciphertext(nonce=ct.nonce, body=ct.body,
                         tag=bytes([ct.tag[0] ^ 1]) + ct.tag[1:])
        with pytest.raises(IntegrityError):
            cipher.decrypt(bad)

    def test_tampered_nonce_rejected(self):
        cipher, rng = make_cipher()
        ct = cipher.encrypt(b"data", rng.bytes(NONCE_SIZE))
        bad = Ciphertext(nonce=bytes([ct.nonce[0] ^ 1]) + ct.nonce[1:],
                         body=ct.body, tag=ct.tag)
        with pytest.raises(IntegrityError):
            cipher.decrypt(bad)

    def test_wrong_key_rejected(self):
        cipher_a, rng = make_cipher(b"a")
        cipher_b, _ = make_cipher(b"b")
        ct = cipher_a.encrypt(b"data", rng.bytes(NONCE_SIZE))
        with pytest.raises(IntegrityError):
            cipher_b.decrypt(ct)

    def test_associated_data_binds(self):
        cipher, rng = make_cipher()
        ct = cipher.encrypt(b"data", rng.bytes(NONCE_SIZE),
                            associated_data=b"context-a")
        with pytest.raises(IntegrityError):
            cipher.decrypt(ct, associated_data=b"context-b")
        assert cipher.decrypt(ct, associated_data=b"context-a") == b"data"

    def test_empty_plaintext(self):
        cipher, rng = make_cipher()
        ct = cipher.encrypt(b"", rng.bytes(NONCE_SIZE))
        assert cipher.decrypt(ct) == b""

    def test_bad_key_size_rejected(self):
        with pytest.raises(ValueError):
            AEADCipher(b"short")

    def test_bad_nonce_size_rejected(self):
        cipher, _ = make_cipher()
        with pytest.raises(ValueError):
            cipher.encrypt(b"data", b"short-nonce")

    @given(st.binary(max_size=2048))
    def test_round_trip_property(self, plaintext):
        cipher, rng = make_cipher(b"hyp")
        nonce = rng.bytes(NONCE_SIZE)
        assert cipher.decrypt(cipher.encrypt(plaintext, nonce)) == plaintext

    @given(st.binary(min_size=1, max_size=512), st.integers(0, 10_000))
    def test_bit_flip_always_detected(self, plaintext, flip_seed):
        cipher, rng = make_cipher(b"flip")
        ct = cipher.encrypt(plaintext, rng.bytes(NONCE_SIZE))
        raw = bytearray(ct.to_bytes())
        position = flip_seed % (len(raw) * 8)
        raw[position // 8] ^= 1 << (position % 8)
        with pytest.raises(IntegrityError):
            cipher.decrypt(Ciphertext.from_bytes(bytes(raw)))


class TestCiphertextSerialization:
    def test_round_trip(self):
        cipher, rng = make_cipher()
        ct = cipher.encrypt(b"payload", rng.bytes(NONCE_SIZE))
        parsed = Ciphertext.from_bytes(ct.to_bytes())
        assert parsed == ct

    def test_truncated_rejected(self):
        with pytest.raises(IntegrityError):
            Ciphertext.from_bytes(b"too short")


class TestSecretBox:
    def test_round_trip(self):
        rng = DeterministicRandom(b"box")
        box = SecretBox(rng.bytes(KEY_SIZE), rng.fork(b"nonces"))
        sealed = box.seal(b"secret")
        assert box.open(sealed) == b"secret"

    def test_distinct_nonces_per_seal(self):
        rng = DeterministicRandom(b"box")
        box = SecretBox(rng.bytes(KEY_SIZE), rng.fork(b"nonces"))
        assert box.seal(b"same") != box.seal(b"same")

    def test_associated_data(self):
        rng = DeterministicRandom(b"box")
        box = SecretBox(rng.bytes(KEY_SIZE), rng.fork(b"nonces"))
        sealed = box.seal(b"secret", associated_data=b"ad")
        with pytest.raises(IntegrityError):
            box.open(sealed)
        assert box.open(sealed, associated_data=b"ad") == b"secret"


def pattern(size):
    return (bytes(range(256)) * (size // 256 + 1))[:size]


def oracle_hkdf(key_material, info):
    """RFC 5869 HKDF-SHA-256 with an empty salt, 32 bytes of output."""
    pseudo_random_key = hmac.new(bytes(32), key_material,
                                 hashlib.sha256).digest()
    return hmac.new(pseudo_random_key, info + b"\x01",
                    hashlib.sha256).digest()


def oracle_seal(key, nonce, plaintext, associated_data):
    """``nonce || tag || body`` computed from the specification alone.

    64 KiB chunk ``i`` of the plaintext is XORed with SHAKE-256 of
    ``encryption key || nonce || i`` (``i`` a big-endian u64); the tag is
    HMAC-SHA-256 of ``nonce || associated_data || body``; both keys come
    from HKDF of the master key.
    """
    encryption_key = oracle_hkdf(key, b"aead-encryption")
    mac_key = oracle_hkdf(key, b"aead-mac")
    keystream = b"".join(
        hashlib.shake_256(encryption_key + nonce
                          + index.to_bytes(8, "big")).digest(65536)
        for index in range(-(-len(plaintext) // 65536)))
    body = bytes(a ^ b for a, b in zip(plaintext, keystream))
    tag = hmac.new(mac_key, nonce + associated_data + body,
                   hashlib.sha256).digest()
    return nonce + tag + body


#: SHA-256 of ``encrypt(pattern(size), nonce, ad).to_bytes()`` under
#: ``KAT_KEY``/``KAT_NONCE``, computed with :func:`oracle_seal` (stdlib
#: ``hmac`` and ``hashlib.shake_256`` only); sizes straddle the chunk
#: edges and reach a 1,000-policy state segment.
KAT_KEY = bytes(range(32))
KAT_NONCE = bytes(range(16, 32))
KAT_AD = b"kat-associated-data"
KNOWN_ANSWERS = {
    (0, False): "458686acef287b1bf08e55f366977c8f8e5705f7b86e0d8c31bb4d5e481555fb",
    (0, True): "0f156d6a3d32b3d8db7a8eaaa9ac38338f043ed9557afce8695288737bd48433",
    (1, False): "cdce2bee7b745961c8f5ca0398fad2e52471c0462f50067960942e02ae7a0a43",
    (1, True): "ed91729a76d5877ec6267d95e8f3bdce7244ce9ff34eef0bfff017860f92bc2e",
    (31, False): "7d83262bab0cb15628d052ed460e730fbe65c72ae31402c74b667919e0e4e49e",
    (31, True): "595340d0b2cca5d7223f70318d6504773c73e7227d5bbfa7e880d8b7726b05c3",
    (32, False): "39444b1793b28af6d77b73ccf39c2a7b16a08c3b282091b3264375053e63a4d6",
    (32, True): "ad7496b7019faebf2411415e43eebf7ad9ab870f55f36cf732f5b8aed10ca597",
    (33, False): "fbedeebd9813a4be99ca62dae794cfe7da065d528c36e318a292847a97e58e82",
    (33, True): "e275f35814dc4b84b3602a6609317b6b485b472bbe3e2ecc77faa5411696cc80",
    (65535, False): "ad5eed502086ae1d6168f5c8b7f517abef9acfda6175aff573495dfe5e810627",
    (65535, True): "a49ee73ad070d9c6add1f104942ae04e193e157dccdc4da322a7bc4391bf8460",
    (65536, False): "b1ec4880287525969735159ec89143c854503bc7c3725964847cc1eeb6b5320a",
    (65536, True): "7c519846ba94d94cd50aeeee1b1de1d138402d0c7f8282f441c27626fb352083",
    (65537, False): "5e6921679cb46429a13023d59f1737356deda522b404a990e4a8424beace4f1f",
    (65537, True): "e2457fd23e37d95c69dd9595f7bac425cb5c0b99ccf81381e1835671e8aa9ce0",
    (2100000, False): "e58168bd2663fc37a8dce85a7ec4fd4e54752b25f41d7214229466da8d93abd8",
    (2100000, True): "a5b3e81c0dd29e069e8af999bd070df308b4a28ab6cab49b103efa3a8181aa69",
}


class TestKnownAnswers:
    @pytest.mark.parametrize("size,with_ad", sorted(KNOWN_ANSWERS))
    def test_ciphertext_matches_reference(self, size, with_ad):
        cipher = AEADCipher(KAT_KEY)
        associated_data = KAT_AD if with_ad else b""
        plaintext = pattern(size)
        ct = cipher.encrypt(plaintext, KAT_NONCE, associated_data)
        digest = hashlib.sha256(ct.to_bytes()).hexdigest()
        assert digest == KNOWN_ANSWERS[(size, with_ad)]
        assert cipher.decrypt(ct, associated_data) == plaintext
        if size:
            flipped = bytearray(ct.body)
            flipped[-1] ^= 0x80
            with pytest.raises(IntegrityError):
                cipher.decrypt(Ciphertext(nonce=ct.nonce, body=bytes(flipped),
                                          tag=ct.tag), associated_data)

    @pytest.mark.parametrize("size,with_ad", sorted(KNOWN_ANSWERS))
    def test_oracle_gives_the_pinned_digest(self, size, with_ad):
        sealed = oracle_seal(KAT_KEY, KAT_NONCE, pattern(size),
                             KAT_AD if with_ad else b"")
        digest = hashlib.sha256(sealed).hexdigest()
        assert digest == KNOWN_ANSWERS[(size, with_ad)]

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.sampled_from([CHUNK_SIZE - 1, CHUNK_SIZE,
                                      CHUNK_SIZE + 1, 2 * CHUNK_SIZE,
                                      3 * CHUNK_SIZE + 1]),
                     st.integers(0, 3 * CHUNK_SIZE + 1)),
           st.binary(min_size=KEY_SIZE, max_size=KEY_SIZE),
           st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE),
           st.binary(max_size=64), st.integers(0, 2**32))
    def test_encrypt_matches_oracle(self, size, key, nonce, associated_data,
                                    seed):
        plaintext = random.Random(seed).randbytes(size)
        cipher = AEADCipher(key)
        ct = cipher.encrypt(plaintext, nonce, associated_data)
        assert ct.to_bytes() == oracle_seal(key, nonce, plaintext,
                                            associated_data)
        assert cipher.decrypt(ct, associated_data) == plaintext


class TestSealMemory:
    def test_sealing_2mib_peaks_below_two_and_a_half_payloads(self):
        """A whole-message keystream (or unchunked integers) would not fit."""
        payload = bytes(2 * 1024 * 1024)
        box = SecretBox(bytes(KEY_SIZE), DeterministicRandom(b"mem"))
        tracemalloc.start()
        try:
            sealed = box.seal(payload)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sealed) == len(payload) + NONCE_SIZE + 32
        assert peak <= 2.5 * len(payload)
