"""Tests for the monotonic counter zoo."""

import pytest

from repro import calibration
from repro.counters.filecounter import FileCounter, FileCounterMode
from repro.counters.platform import SGXPlatformCounter
from repro.counters.rote import ROTECounterGroup
from repro.counters.tpm import TPMCounter
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.symmetric import NONCE_SIZE, TAG_SIZE
from repro.errors import CounterError, CounterWearError, IntegrityError
from repro.fs.blockstore import BlockStore
from repro.fs.shield import ProtectedFileSystem
from repro.sim.core import Simulator
from repro.tee.counters import PlatformCounterService


def measured_rate(simulator, counter, increments=50):
    """Increment ``increments`` times and return increments/second."""
    def main():
        start = simulator.now
        for _ in range(increments):
            yield simulator.process(counter.increment())
        return increments / (simulator.now - start)

    return simulator.run_process(main())


class TestSGXPlatformCounter:
    def test_monotone(self):
        sim = Simulator()
        counter = SGXPlatformCounter(PlatformCounterService(sim), "c")

        def main():
            values = []
            for _ in range(3):
                values.append((yield sim.process(counter.increment())))
            return values

        assert sim.run_process(main()) == [1, 2, 3]

    def test_rate_near_paper_value(self):
        sim = Simulator()
        counter = SGXPlatformCounter(PlatformCounterService(sim), "c")
        rate = measured_rate(sim, counter, increments=30)
        assert 8 <= rate <= 20  # paper: 13/s measured, 20/s spec limit

    def test_wear_tracked(self):
        sim = Simulator()
        counter = SGXPlatformCounter(PlatformCounterService(sim), "c")
        measured_rate(sim, counter, increments=5)
        assert counter.wear == 5


class TestTPMCounter:
    def test_rate_near_paper_value(self):
        sim = Simulator()
        rate = measured_rate(sim, TPMCounter(sim), increments=30)
        assert 7 <= rate <= 12  # paper: ~10/s

    def test_wear_out(self):
        sim = Simulator()
        counter = TPMCounter(sim, wear_limit=2)

        def main():
            for _ in range(3):
                yield sim.process(counter.increment())

        with pytest.raises(CounterWearError):
            sim.run_process(main())

    def test_endurance_band_constants(self):
        assert calibration.TPM_COUNTER_WEAR_LIMIT_MIN == 300_000
        assert calibration.TPM_COUNTER_WEAR_LIMIT_MAX == 1_400_000


class TestROTE:
    def test_rate_near_paper_value(self):
        sim = Simulator()
        group = ROTECounterGroup(sim, group_size=4)
        rate = measured_rate(sim, group, increments=100)
        assert 300 <= rate <= 700  # paper: ~500 ops/s, 4 servers LAN

    def test_quorum_replication(self):
        sim = Simulator()
        group = ROTECounterGroup(sim, group_size=4)
        measured_rate(sim, group, increments=3)
        assert all(replica.value == 3 for replica in group.replicas)

    def test_tolerates_minority_failures(self):
        sim = Simulator()
        group = ROTECounterGroup(sim, group_size=4)
        group.fail_replica(0)

        def main():
            value = yield sim.process(group.increment())
            return value

        assert sim.run_process(main()) == 1

    def test_majority_failure_blocks(self):
        sim = Simulator()
        group = ROTECounterGroup(sim, group_size=4)
        for replica_id in (0, 1):
            group.fail_replica(replica_id)

        def main():
            yield sim.process(group.increment())

        with pytest.raises(CounterError, match="quorum"):
            sim.run_process(main())

    def test_too_small_group_rejected(self):
        with pytest.raises(CounterError):
            ROTECounterGroup(Simulator(), group_size=2)


class TestFileCounter:
    @pytest.mark.parametrize("mode", list(FileCounterMode))
    def test_monotone_and_persistent(self, mode):
        sim = Simulator()
        counter = FileCounter(sim, mode)
        measured_rate(sim, counter, increments=5)
        assert counter.read() == 5

    @pytest.mark.parametrize("mode,expected_rate", [
        (FileCounterMode.NATIVE, calibration.FILE_COUNTER_NATIVE_RATE),
        (FileCounterMode.SGX, calibration.FILE_COUNTER_SGX_RATE),
        (FileCounterMode.ENCRYPTED, calibration.FILE_COUNTER_ENCRYPTED_RATE),
        (FileCounterMode.STRICT, calibration.FILE_COUNTER_PALAEMON_RATE),
    ])
    def test_rates_match_calibration(self, mode, expected_rate):
        sim = Simulator()
        counter = FileCounter(sim, mode)
        rate = measured_rate(sim, counter, increments=100)
        assert rate == pytest.approx(expected_rate, rel=0.01)

    def test_five_orders_of_magnitude_headline(self):
        """The paper's headline claim: file counters are ~1e5x faster than
        platform counters."""
        sim = Simulator()
        platform_rate = measured_rate(
            sim, SGXPlatformCounter(PlatformCounterService(sim), "c"),
            increments=20)
        sim2 = Simulator()
        file_rate = measured_rate(
            sim2, FileCounter(sim2, FileCounterMode.STRICT), increments=100)
        assert file_rate / platform_rate >= 1e5

    def test_encrypted_counter_hidden_in_store(self):
        sim = Simulator()
        store = BlockStore()
        counter = FileCounter(sim, FileCounterMode.ENCRYPTED, store=store)
        measured_rate(sim, counter, increments=7)
        counter.close()
        # NATIVE mode stores exactly b"7"; no encrypted path may.
        assert [path for path in store.list()
                if store.read(path) == b"7"] == []
        sealed = store.read(FileCounter.COUNTER_PATH)
        assert len(sealed) == NONCE_SIZE + TAG_SIZE + len(b"7")
        with pytest.raises(IntegrityError):
            ProtectedFileSystem(store, bytes(32), DeterministicRandom(b"other")
                                ).read(FileCounter.COUNTER_PATH)
        assert counter.read() == 7

    def test_native_counter_visible_in_store(self):
        sim = Simulator()
        store = BlockStore()
        counter = FileCounter(sim, FileCounterMode.NATIVE, store=store)
        measured_rate(sim, counter, increments=7)
        assert store.read(FileCounter.COUNTER_PATH) == b"7"

    def test_strict_mode_pushes_tag_on_close(self):
        sim = Simulator()
        tags = []
        counter = FileCounter(sim, FileCounterMode.STRICT,
                              tag_listener=tags.append)
        measured_rate(sim, counter, increments=3)
        counter.close()
        assert len(tags) == 1

    def test_encrypted_mode_does_not_push_tags(self):
        sim = Simulator()
        tags = []
        counter = FileCounter(sim, FileCounterMode.ENCRYPTED,
                              tag_listener=tags.append)
        measured_rate(sim, counter, increments=3)
        counter.close()
        assert tags == []

    def test_rollback_attack_on_strict_counter_detected(self):
        """Restore an old volume snapshot; the tag no longer matches."""
        from repro.errors import TagMismatchError
        from repro.fs.shield import ProtectedFileSystem

        sim = Simulator()
        store = BlockStore()
        tags = []
        rng_seed = b"rollback-counter"
        counter = FileCounter(sim, FileCounterMode.STRICT, store=store,
                              rng=DeterministicRandom(rng_seed),
                              tag_listener=tags.append)
        measured_rate(sim, counter, increments=2)
        counter.close()
        checkpoint = store.snapshot()
        measured_rate(sim, counter, increments=3)
        counter.close()
        expected_tag = tags[-1]

        store.restore(checkpoint)  # attacker rolls the volume back
        remounted = ProtectedFileSystem(
            store, DeterministicRandom(rng_seed).fork(b"fs-key").bytes(32),
            DeterministicRandom(b"other"))
        with pytest.raises(TagMismatchError):
            remounted.verify_tag(expected_tag)
