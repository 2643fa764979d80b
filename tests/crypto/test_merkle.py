"""Tests for the incremental Merkle tree."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.merkle import MerkleTree
from repro.errors import IntegrityError


class TestRoot:
    def test_empty_root_is_stable(self):
        assert MerkleTree().root() == MerkleTree().root()

    def test_single_leaf_changes_root(self):
        tree = MerkleTree()
        empty_root = tree.root()
        tree.set_leaf("/a", b"content")
        assert tree.root() != empty_root

    def test_content_change_changes_root(self):
        tree = MerkleTree()
        tree.set_leaf("/a", b"v1")
        first = tree.root()
        tree.set_leaf("/a", b"v2")
        assert tree.root() != first

    def test_rollback_restores_old_root(self):
        """The detection premise: old state has the old (stale) root."""
        tree = MerkleTree()
        tree.set_leaf("/a", b"v1")
        old_root = tree.root()
        tree.set_leaf("/a", b"v2")
        tree.set_leaf("/a", b"v1")
        assert tree.root() == old_root

    def test_name_matters_not_just_content(self):
        a = MerkleTree()
        a.set_leaf("/x", b"data")
        b = MerkleTree()
        b.set_leaf("/y", b"data")
        assert a.root() != b.root()

    def test_order_independent(self):
        a = MerkleTree()
        a.set_leaf("/1", b"one")
        a.set_leaf("/2", b"two")
        b = MerkleTree()
        b.set_leaf("/2", b"two")
        b.set_leaf("/1", b"one")
        assert a.root() == b.root()

    def test_removal_changes_root(self):
        tree = MerkleTree()
        tree.set_leaf("/a", b"a")
        tree.set_leaf("/b", b"b")
        with_both = tree.root()
        tree.remove_leaf("/b")
        assert tree.root() != with_both

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            MerkleTree().remove_leaf("/nope")

    def test_leaf_splicing_resistance(self):
        """Interior nodes cannot masquerade as leaves (domain separation)."""
        tree = MerkleTree()
        for i in range(4):
            tree.set_leaf(f"/{i}", f"data-{i}".encode())
        root = tree.root()
        # Build a 2-leaf tree whose leaves are the 4-leaf tree's interior
        # hashes; its root must differ from the original.
        spliced = MerkleTree()
        leaves = tree.snapshot()
        spliced.set_leaf_hash("/0", leaves["/0"])
        spliced.set_leaf_hash("/1", leaves["/1"])
        assert spliced.root() != root

    @given(st.dictionaries(st.text(min_size=1, max_size=10),
                           st.binary(max_size=64), max_size=20))
    def test_snapshot_round_trip(self, contents):
        tree = MerkleTree()
        for name, data in contents.items():
            tree.set_leaf(name, data)
        restored = MerkleTree.from_snapshot(tree.snapshot().items())
        assert restored.root() == tree.root()

    @given(st.lists(st.tuples(st.text(min_size=1, max_size=8),
                              st.binary(max_size=32)),
                    min_size=1, max_size=30))
    def test_root_is_function_of_final_state(self, operations):
        """Roots depend only on the final leaf set, not update history."""
        incremental = MerkleTree()
        for name, data in operations:
            incremental.set_leaf(name, data)
        final_state = {}
        for name, data in operations:
            final_state[name] = data
        direct = MerkleTree()
        for name, data in final_state.items():
            direct.set_leaf(name, data)
        assert incremental.root() == direct.root()

    @given(st.lists(
        st.tuples(st.sampled_from(["set", "remove"]),
                  st.sampled_from([f"/f{i}" for i in range(8)]),
                  st.binary(min_size=0, max_size=16)),
        min_size=1, max_size=40))
    def test_incremental_matches_from_scratch(self, operations):
        """Cached-level updates == a from-scratch ``from_snapshot`` build.

        The root is queried after every operation so each insert, update,
        and remove exercises the incremental path recompute, never a lazy
        full rebuild.
        """
        incremental = MerkleTree()
        incremental.root()  # materialize the (empty) level cache
        model = {}
        for operation, name, data in operations:
            if operation == "set" or name not in model:
                incremental.set_leaf(name, data)
                model[name] = data
            else:
                incremental.remove_leaf(name)
                del model[name]
            scratch = MerkleTree.from_snapshot(
                sorted(incremental.snapshot().items()))
            assert incremental.root() == scratch.root()
            for leaf in model:
                incremental.prove(leaf).verify(scratch.root())


class TestProofs:
    def build_tree(self, n=7):
        tree = MerkleTree()
        for i in range(n):
            tree.set_leaf(f"/file-{i}", f"content-{i}".encode())
        return tree

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 13])
    def test_all_proofs_verify(self, size):
        tree = self.build_tree(size)
        root = tree.root()
        for name in tree.snapshot():
            tree.prove(name).verify(root)

    def test_proof_fails_against_other_root(self):
        tree = self.build_tree()
        proof = tree.prove("/file-0")
        tree.set_leaf("/file-3", b"changed")
        with pytest.raises(IntegrityError):
            proof.verify(tree.root())

    def test_proof_for_tampered_leaf_fails(self):
        tree = self.build_tree()
        root = tree.root()
        proof = tree.prove("/file-2")
        proof.content_hash = b"\x00" * 32
        with pytest.raises(IntegrityError):
            proof.verify(root)

    def test_proof_for_missing_leaf_raises(self):
        with pytest.raises(KeyError):
            self.build_tree().prove("/missing")


class TestAccessors:
    def test_bad_hash_length_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree().set_leaf_hash("/a", b"short")
