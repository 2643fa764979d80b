"""Tests for the AEAD cipher and SecretBox."""

import hashlib
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.crypto.primitives import DeterministicRandom
from repro.crypto.symmetric import (
    AEADCipher,
    Ciphertext,
    KEY_SIZE,
    NONCE_SIZE,
    SecretBox,
    generate_key,
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

    def test_length(self):
        cipher, rng = make_cipher()
        ct = cipher.encrypt(b"12345", rng.bytes(NONCE_SIZE))
        assert len(ct) == len(ct.to_bytes())


class TestSecretBox:
    def test_round_trip(self):
        rng = DeterministicRandom(b"box")
        box = SecretBox(generate_key(rng), rng.fork(b"nonces"))
        sealed = box.seal(b"secret")
        assert box.open(sealed) == b"secret"

    def test_distinct_nonces_per_seal(self):
        rng = DeterministicRandom(b"box")
        box = SecretBox(generate_key(rng), rng.fork(b"nonces"))
        assert box.seal(b"same") != box.seal(b"same")

    def test_associated_data(self):
        rng = DeterministicRandom(b"box")
        box = SecretBox(generate_key(rng), rng.fork(b"nonces"))
        sealed = box.seal(b"secret", associated_data=b"ad")
        with pytest.raises(IntegrityError):
            box.open(sealed)
        assert box.open(sealed, associated_data=b"ad") == b"secret"


def pattern(size):
    return (bytes(range(256)) * (size // 256 + 1))[:size]


#: SHA-256 of ``encrypt(pattern(size), nonce, ad).to_bytes()`` under
#: ``KAT_KEY``/``KAT_NONCE``, recorded with the byte-at-a-time reference
#: implementation (one SHA-256 of key || nonce || counter per 32-byte
#: block, XORed a byte at a time); sizes straddle the block and chunk
#: edges and reach a 1,000-policy state segment.
KAT_KEY = bytes(range(32))
KAT_NONCE = bytes(range(16, 32))
KAT_AD = b"kat-associated-data"
KNOWN_ANSWERS = {
    (0, False): "458686acef287b1bf08e55f366977c8f8e5705f7b86e0d8c31bb4d5e481555fb",
    (0, True): "0f156d6a3d32b3d8db7a8eaaa9ac38338f043ed9557afce8695288737bd48433",
    (1, False): "599fee6737918ec28c078925ea2a125ecdf0f253fec935e6fa9fd00b0a0f8534",
    (1, True): "c4b246383c87a31ff88c4b8509b0ad66f1e9912f92873a77ae81ffe1b91ac9c6",
    (31, False): "c6dc1488833238052f41f9ed0ff3af3ca1bf378a47ab45780d99df247d856770",
    (31, True): "15cbfd2474f658c7a58dcadb005e30e2303891afbbea3e59a4c54a2a2f4329f4",
    (32, False): "19c96e56754b27fa4b5c30078458d38cb53c9035d50c3772aac5a99b09f1960d",
    (32, True): "77706bcb8c995ca6a3df15b2540bc5527a0e19b58bd3339c96ea25223013feee",
    (33, False): "d0311d07c03b647257016fab977579c77cbe645e9c3c7009f41eef41d53088bc",
    (33, True): "0109047baf6341faecaddb6a34c4f505bf9e76806a68a4be7608ffe0df1556e2",
    (65535, False): "ebb3c05fa1f8ea9ba146cf2f11a0c665badfb7015a6242d863b1cce22d85d4bd",
    (65535, True): "17afe8f46580d97e2e8df2a29fd4d350207a0bd7fe21325e407394d924bf1c65",
    (65536, False): "680f8cdaa9dc6fd667c5012d2787ba74f460e17060f60b0ee88deb4e6bb485bf",
    (65536, True): "0a09c011552da088518c230a7a22a5aa0f54a7a33a3e224380de1b6816c3fa40",
    (65537, False): "5959e64348ad9426056c1c798aad008ae9a0ecc1ed843f38bf44b1a9674f5e1e",
    (65537, True): "e00eee82aa61f7482038ec82aee96c8814d045fbbc9a9248efbf1571dedc794a",
    (2100000, False): "8aa7c6d728045c8a22fd837ddbd380f0481081bbf216fdbe36b34bc1b3e5ee90",
    (2100000, True): "2d1f258fc2cb7ee0eb45a5cec7744165a74431f33170a898467b42b2d8f471e8",
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
