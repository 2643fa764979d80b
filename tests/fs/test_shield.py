"""Tests for the block store, FSPF, and the file-system shield."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.merkle import MerkleTree
from repro.crypto.primitives import DeterministicRandom
from repro.errors import IntegrityError, TagMismatchError
from repro.fs.blockstore import BlockStore
from repro.fs.fspf import FileSystemProtectionFile
from repro.fs.shield import ProtectedFileSystem

from tests.doubles import tamper


def make_fs(listener=None, seed=b"fs-test"):
    store = BlockStore()
    rng = DeterministicRandom(seed)
    key = rng.fork(b"key").bytes(32)
    return ProtectedFileSystem(store, key, rng.fork(b"shield"),
                               tag_listener=listener), store, key, rng


class TestBlockStore:
    def test_write_read_delete(self):
        store = BlockStore()
        store.write("/a", b"data")
        assert store.read("/a") == b"data"
        assert store.exists("/a")
        store.delete("/a")
        assert not store.exists("/a")

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            BlockStore().read("/nope")
        with pytest.raises(FileNotFoundError):
            BlockStore().delete("/nope")

    def test_snapshot_restore(self):
        store = BlockStore()
        store.write("/a", b"v1")
        checkpoint = store.snapshot()
        store.write("/a", b"v2")
        store.write("/b", b"new")
        store.restore(checkpoint)
        assert store.read("/a") == b"v1"
        assert not store.exists("/b")

    def test_scan_for(self):
        store = BlockStore()
        store.write("/a", b"contains needle here")
        store.write("/b", b"clean")
        assert store.scan_for(b"needle") == ["/a"]

    def test_accounting(self):
        store = BlockStore()
        store.write("/a", b"12345")
        store.read("/a")
        assert store.write_count == 1
        assert store.read_count == 1


class TestShieldBasics:
    def test_write_read_round_trip(self):
        fs, _, _, _ = make_fs()
        fs.write("/app/config", b"plaintext content")
        assert fs.read("/app/config") == b"plaintext content"

    def test_plaintext_never_in_store(self):
        fs, store, _, _ = make_fs()
        secret = b"super-secret-model-weights"
        fs.write("/model.bin", secret)
        fs.sync()
        assert store.scan_for(secret) == []

    def test_read_missing_raises(self):
        fs, _, _, _ = make_fs()
        with pytest.raises(FileNotFoundError):
            fs.read("/missing")

    def test_relative_path_rejected(self):
        fs, _, _, _ = make_fs()
        with pytest.raises(ValueError):
            fs.write("relative", b"x")

    def test_fspf_path_reserved(self):
        fs, _, _, _ = make_fs()
        with pytest.raises(ValueError):
            fs.write("/.fspf", b"x")

    def test_cache_serves_repeat_reads(self):
        fs, _, _, _ = make_fs()
        fs.write("/a", b"cached")
        fs.read("/a")
        decrypts_before = fs.decrypt_count
        fs.read("/a")
        assert fs.decrypt_count == decrypts_before

    @given(st.dictionaries(
        st.from_regex(r"/[a-z]{1,8}", fullmatch=True),
        st.binary(max_size=256), min_size=1, max_size=10))
    def test_round_trip_property(self, files):
        fs, _, _, _ = make_fs(seed=b"hyp")
        for path, data in files.items():
            fs.write(path, data)
        for path, data in files.items():
            assert fs.read(path) == data


class TestPersistence:
    def test_remount_after_sync(self):
        fs, store, key, _ = make_fs()
        fs.write("/data", b"persisted")
        fs.sync()
        remounted = ProtectedFileSystem(store, key,
                                        DeterministicRandom(b"remount"))
        assert remounted.read("/data") == b"persisted"

    def test_remount_wrong_key_fails(self):
        fs, store, _, _ = make_fs()
        fs.write("/data", b"persisted")
        fs.sync()
        with pytest.raises(IntegrityError):
            ProtectedFileSystem(store, b"\x00" * 32,
                                DeterministicRandom(b"wrong"))

    def test_tag_survives_remount(self):
        fs, store, key, _ = make_fs()
        fs.write("/data", b"persisted")
        tag = fs.sync()
        remounted = ProtectedFileSystem(store, key,
                                        DeterministicRandom(b"remount"))
        assert remounted.tag() == tag


class TestTagSemantics:
    def test_tag_changes_on_write(self):
        fs, _, _, _ = make_fs()
        fs.write("/a", b"v1")
        tag1 = fs.sync()
        fs.write("/a", b"v2")
        tag2 = fs.sync()
        assert tag1 != tag2

    def test_tag_listener_called_on_all_three_events(self):
        tags = []
        fs, _, _, _ = make_fs(listener=tags.append)
        fs.write("/a", b"1")
        fs.close_file("/a")
        fs.write("/a", b"2")
        fs.sync()
        fs.write("/a", b"3")
        fs.on_exit()
        assert len(tags) == 3
        assert len(set(tags)) == 3

    def test_verify_tag_accepts_current(self):
        fs, _, _, _ = make_fs()
        fs.write("/a", b"data")
        tag = fs.sync()
        fs.verify_tag(tag)

    def test_verify_tag_rejects_stale(self):
        fs, _, _, _ = make_fs()
        fs.write("/a", b"v1")
        old_tag = fs.sync()
        fs.write("/a", b"v2")
        fs.sync()
        with pytest.raises(TagMismatchError):
            fs.verify_tag(old_tag)


class TestAttacks:
    def test_rollback_attack_detected(self):
        """The core §III-D scenario: snapshot, progress, restore, detect."""
        fs, store, key, _ = make_fs()
        fs.write("/state", b"run-1")
        fs.sync()
        checkpoint = store.snapshot()  # attacker checkpoints the volume

        fs.write("/state", b"run-2")
        expected_tag = fs.sync()  # PALAEMON now expects this tag

        store.restore(checkpoint)  # attacker rolls back
        remounted = ProtectedFileSystem(store, key,
                                        DeterministicRandom(b"restart"))
        with pytest.raises(TagMismatchError):
            remounted.verify_tag(expected_tag)

    def test_tamper_with_ciphertext_detected_on_read(self):
        fs, store, key, _ = make_fs()
        fs.write("/a", b"original")
        fs.sync()
        tamper(store, "/a", b"\x00" * 64)
        remounted = ProtectedFileSystem(store, key,
                                        DeterministicRandom(b"r"))
        with pytest.raises(IntegrityError):
            remounted.read("/a")

    def test_file_swap_detected(self):
        """Swapping two encrypted files is caught by path-bound AD/hashes."""
        fs, store, key, _ = make_fs()
        fs.write("/a", b"content-a")
        fs.write("/b", b"content-b")
        fs.sync()
        raw_a, raw_b = store.read("/a"), store.read("/b")
        tamper(store, "/a", raw_b)
        tamper(store, "/b", raw_a)
        remounted = ProtectedFileSystem(store, key,
                                        DeterministicRandom(b"r"))
        with pytest.raises(IntegrityError):
            remounted.read("/a")

    def test_planted_file_is_invisible(self):
        """A valid ciphertext copied to a path the FSPF does not list is
        not part of the file system, and the tag still holds."""
        fs, store, key, _ = make_fs()
        fs.write("/a", b"genuine")
        expected = fs.sync()
        tamper(store, "/planted", store.read("/a"))
        remounted = ProtectedFileSystem(store, key,
                                        DeterministicRandom(b"r"))
        assert not remounted.exists("/planted")
        with pytest.raises(FileNotFoundError):
            remounted.read("/planted")
        remounted.verify_tag(expected)
        assert remounted.read("/a") == b"genuine"

    def test_fspf_tampering_detected(self):
        fs, store, key, _ = make_fs()
        fs.write("/a", b"data")
        fs.sync()
        tamper(store, "/.fspf", b"\x41" * 128)
        with pytest.raises(IntegrityError):
            ProtectedFileSystem(store, key, DeterministicRandom(b"r"))


class TestSyncGenerations:
    def test_sync_skips_unchanged_paths(self):
        """sync() must not re-read ciphertexts whose blocks are unchanged."""
        fs, store, _, _ = make_fs()
        for index in range(5):
            fs.write(f"/f{index}", b"payload-%d" % index)
        fs.sync()
        reads_before = store.read_count
        fs.sync()
        assert store.read_count == reads_before

    def test_sync_revalidates_after_out_of_band_change(self):
        fs, store, _, _ = make_fs()
        fs.write("/a", b"cached plaintext")
        fs.sync()
        tamper(store, "/a", b"\x00" * 64)  # bumps /a's generation
        fs.sync()  # hash mismatch: the cached plaintext must be evicted
        with pytest.raises(IntegrityError):
            fs.read("/a")

    def test_sync_revalidates_after_rollback_restore(self):
        fs, store, _, _ = make_fs()
        fs.write("/a", b"v1")
        fs.sync()
        checkpoint = store.snapshot()
        fs.write("/a", b"v2")
        fs.sync()
        store.restore(checkpoint)  # restore() bumps every path's generation
        fs.sync()  # /a's blocks no longer match the live FSPF: evict
        # The cached "v2" plaintext must not be served; the rolled-back
        # ciphertext fails against the in-enclave FSPF hash instead.
        with pytest.raises(IntegrityError):
            fs.read("/a")

    def test_generation_bumps_on_every_mutation(self):
        store = BlockStore()
        assert store.generation("/a") == 0
        store.write("/a", b"1")
        first = store.generation("/a")
        tamper(store, "/a", b"2")
        second = store.generation("/a")
        store.restore({"/a": b"3"})
        third = store.generation("/a")
        assert 0 < first < second < third


class TestFspf:
    def test_tag_is_merkle_root(self):
        fspf = FileSystemProtectionFile()
        fspf.set_entry("/a", b"\x01" * 32, 10)
        expected = MerkleTree()
        expected.set_leaf_hash("/a", b"\x01" * 32)
        assert fspf.tag() == expected.root()

    def test_seal_unseal_round_trip(self):
        rng = DeterministicRandom(b"fspf")
        from repro.crypto.symmetric import SecretBox
        box = SecretBox(rng.bytes(32), rng.fork(b"n"))
        fspf = FileSystemProtectionFile()
        fspf.set_entry("/a", b"\x02" * 32, 5)
        restored = FileSystemProtectionFile.unseal(box, fspf.seal(box))
        assert restored.tag() == fspf.tag()
        assert restored.entries["/a"].size == 5
