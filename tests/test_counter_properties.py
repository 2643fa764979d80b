"""Cross-implementation properties of the monotonic counter zoo, plus
crypto boundary-condition tests that document known limits."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.counters.filecounter import FileCounter, FileCounterMode
from repro.counters.rote import ROTECounterGroup
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.symmetric import AEADCipher, KEY_SIZE, NONCE_SIZE
from repro.sim.core import Simulator
from repro.tee.counters import PlatformCounterService, TPMCounterService


def nvram(service_class):
    """An NVRAM counter service holding one counter, as an
    ``(increment, read)`` pair."""
    def factory(sim):
        service = service_class(sim)
        service.create("c")
        return (lambda: service.increment("c")), (lambda: service.read("c"))
    return factory


def rote(sim):
    group = ROTECounterGroup(sim)

    def read():
        assert all(replica.value == group._value
                   for replica in group.replicas)
        return group._value

    return group.increment, read


def file_counter(mode):
    def factory(sim):
        counter = FileCounter(sim, mode)
        return counter.increment, counter.read
    return factory


def all_counter_factories():
    """Each Fig 10 contender as a factory of an ``(increment, read)`` pair:
    ``increment()`` is a process returning the new value, ``read()`` the
    value the counter holds."""
    return [
        ("sgx-platform", nvram(PlatformCounterService)),
        ("tpm", nvram(TPMCounterService)),
        ("rote", rote),
        ("file-native", file_counter(FileCounterMode.NATIVE)),
        ("file-sgx", file_counter(FileCounterMode.SGX)),
        ("file-encrypted", file_counter(FileCounterMode.ENCRYPTED)),
        ("file-strict", file_counter(FileCounterMode.STRICT)),
    ]


@pytest.mark.parametrize("name,factory", all_counter_factories())
class TestUniversalCounterProperties:
    def test_strictly_increasing(self, name, factory):
        sim = Simulator()
        increment, _read = factory(sim)

        def main():
            values = []
            for _ in range(10):
                values.append((yield sim.process(increment())))
            return values

        values = sim.run_process(main())
        assert values == sorted(set(values))
        assert values == list(range(1, 11))

    def test_read_matches_last_increment(self, name, factory):
        sim = Simulator()
        increment, read = factory(sim)

        def main():
            for _ in range(5):
                value = yield sim.process(increment())
            return value

        assert sim.run_process(main()) == 5
        assert read() == 5

    def test_instances_do_not_share_a_value(self, name, factory):
        sim = Simulator()
        (first, read_first), (second, _read) = factory(sim), factory(sim)

        def main():
            for _ in range(3):
                yield sim.process(first())
            value = yield sim.process(second())
            return value

        assert sim.run_process(main()) == 1
        assert read_first() == 3

    def test_every_increment_costs_the_same(self, name, factory):
        """Fig 10 reports a rate, which assumes a steady per-increment
        cost: no warm-up, no wear-dependent slowdown in the first few."""
        sim = Simulator()
        increment, _read = factory(sim)

        def main():
            costs = []
            for _ in range(6):
                started = sim.now
                yield sim.process(increment())
                costs.append(sim.now - started)
            return costs

        costs = sim.run_process(main())
        assert costs == [pytest.approx(costs[0])] * len(costs)

    def test_increment_consumes_time(self, name, factory):
        sim = Simulator()
        increment, _read = factory(sim)

        def main():
            yield sim.process(increment())
            return sim.now

        assert sim.run_process(main()) > 0.0


class TestHypothesisCounterSequences:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40))
    def test_file_counter_value_equals_increment_count(self, increments):
        sim = Simulator()
        counter = FileCounter(sim, FileCounterMode.ENCRYPTED)

        def main():
            for _ in range(increments):
                yield sim.process(counter.increment())

        sim.run_process(main())
        assert counter.read() == increments


class TestCryptoBoundaries:
    def test_nonce_reuse_leaks_xor_of_plaintexts(self):
        """Documented limitation shared with every stream cipher: reusing a
        nonce under one key leaks the XOR of the plaintexts — which is why
        every nonce in the library flows from a forked DRBG."""
        rng = DeterministicRandom(b"nonce-reuse")
        cipher = AEADCipher(rng.bytes(KEY_SIZE))
        nonce = rng.bytes(NONCE_SIZE)
        p1 = b"attack at dawn!!"
        p2 = b"retreat at dusk!"
        c1 = cipher.encrypt(p1, nonce)
        c2 = cipher.encrypt(p2, nonce)
        xor_of_bodies = bytes(a ^ b for a, b in zip(c1.body, c2.body))
        xor_of_plaintexts = bytes(a ^ b for a, b in zip(p1, p2))
        assert xor_of_bodies == xor_of_plaintexts  # the leak, demonstrated

    def test_distinct_nonces_do_not_leak(self):
        rng = DeterministicRandom(b"nonce-fresh")
        cipher = AEADCipher(rng.bytes(KEY_SIZE))
        p1 = b"attack at dawn!!"
        c1 = cipher.encrypt(p1, rng.bytes(NONCE_SIZE))
        c2 = cipher.encrypt(p1, rng.bytes(NONCE_SIZE))
        assert c1.body != c2.body  # same plaintext, unlinkable ciphertexts

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=KEY_SIZE, max_size=KEY_SIZE),
           st.binary(min_size=KEY_SIZE, max_size=KEY_SIZE))
    def test_key_separation(self, key_a, key_b):
        """Ciphertext under one key never authenticates under another."""
        if key_a == key_b:
            return
        from repro.errors import IntegrityError

        nonce = b"\x00" * NONCE_SIZE
        ct = AEADCipher(key_a).encrypt(b"payload", nonce)
        with pytest.raises(IntegrityError):
            AEADCipher(key_b).decrypt(ct)
