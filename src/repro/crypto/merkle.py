"""Incremental Merkle tree over named leaves.

The shielded file system (``repro.fs.shield``) maintains one leaf per file
(hash of the file's ciphertext) and publishes the root hash as the file
system's *tag*. Any modification — including replacing the whole store with
an older snapshot — changes or stales the tag, which is how both tampering
and rollback become detectable.

Leaves are keyed by name (file path) rather than index so that files can be
added and removed; the tree hashes the sorted leaf set, with domain
separation between leaf and interior hashes to prevent second-preimage
splicing attacks.

The tree is *incremental*: every level of interior hashes is cached, so an
in-place leaf update recomputes only the O(log n) root path, and ``root()``
after a single-file write no longer re-hashes the whole file set. Inserting
or removing a leaf shifts the sorted order at the insertion point, so those
operations recompute the suffix of each level from the affected index —
O(log n) for appends near the end of the name order, O(n) worst case for a
prepend, never more than a full rebuild.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

from repro.crypto.primitives import constant_time_equal, sha256
from repro.errors import IntegrityError, MerkleLeafNotFoundError

_LEAF_PREFIX = b"\x00leaf"
_NODE_PREFIX = b"\x01node"
_EMPTY_ROOT = sha256(b"\x02empty-merkle-tree")


def _leaf_hash(name: str, value_hash: bytes) -> bytes:
    encoded_name = name.encode()
    return sha256(_LEAF_PREFIX, len(encoded_name).to_bytes(4, "big"),
                  encoded_name, value_hash)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(_NODE_PREFIX, left, right)


class MerkleTree:
    """A Merkle tree over a mutable mapping of name -> content hash.

    Internally keeps the full pyramid of hash levels (``_levels[0]`` is the
    sorted leaf hashes, ``_levels[-1]`` is ``[root]``, and an empty tree
    is ``[[]]``) so that ``root()`` is
    O(1) on a clean tree and a leaf update is O(log n). The cache is built
    lazily: bulk loads (``from_snapshot``) stay O(n log n) total because the
    pyramid is only materialized on the first ``root()``/``prove()``.
    """

    def __init__(self) -> None:
        self._leaves: Dict[str, bytes] = {}
        # Sorted leaf names and the cached hash levels; both valid only
        # while _levels is not None.
        self._order: List[str] = []
        self._levels: Optional[List[List[bytes]]] = None

    def set_leaf(self, name: str, content: bytes) -> None:
        """Insert or update the leaf for ``name`` with a hash of ``content``."""
        self.set_leaf_hash(name, sha256(content))

    def set_leaf_hash(self, name: str, content_hash: bytes) -> None:
        """Insert or update a leaf with a precomputed content hash."""
        if len(content_hash) != 32:
            raise ValueError("content hash must be 32 bytes")
        existed = name in self._leaves
        self._leaves[name] = content_hash
        if self._levels is None:
            return
        leaf = _leaf_hash(name, content_hash)
        index = bisect_left(self._order, name)
        if existed:
            self._levels[0][index] = leaf
        else:
            self._order.insert(index, name)
            self._levels[0].insert(index, leaf)
        self._recompute_from(index)

    def remove_leaf(self, name: str) -> None:
        """Remove the leaf for ``name``; missing names are an error."""
        if name not in self._leaves:
            raise MerkleLeafNotFoundError(f"no Merkle leaf named {name!r}")
        del self._leaves[name]
        if self._levels is None:
            return
        index = bisect_left(self._order, name)
        del self._order[index]
        del self._levels[0][index]
        self._recompute_from(index)

    def root(self) -> bytes:
        """The current root hash ("tag"). Empty trees have a fixed root."""
        levels = self._ensure_levels()
        if not levels[0]:
            return _EMPTY_ROOT
        return levels[-1][0]

    def _ensure_levels(self) -> List[List[bytes]]:
        if self._levels is None:
            self._order = sorted(self._leaves)
            self._levels = [[_leaf_hash(name, self._leaves[name])
                             for name in self._order]]
            self._recompute_from(0)
        return self._levels

    def _recompute_from(self, index: int) -> None:
        """Recompute cached levels above a change at leaf ``index``.

        Leaves before ``index`` are untouched, so each parent level only
        needs recomputing from ``index // 2`` onward; the suffix walk also
        absorbs level-length changes after an insert or remove. From
        ``index`` 0 it builds the whole pyramid (see ``_ensure_levels``).
        """
        levels = self._levels
        assert levels is not None
        depth = 0
        while len(levels[depth]) > 1:
            child = levels[depth]
            parent_length = (len(child) + 1) // 2
            index //= 2
            if depth + 1 == len(levels):
                levels.append([b""] * parent_length)
            parent = levels[depth + 1]
            del parent[parent_length:]
            parent.extend([b""] * (parent_length - len(parent)))
            for i in range(index, parent_length):
                left = child[2 * i]
                if 2 * i + 1 < len(child):
                    parent[i] = _node_hash(left, child[2 * i + 1])
                else:
                    # Odd node is promoted; safe with domain separation.
                    parent[i] = left
            depth += 1
        del levels[depth + 1:]

    def prove(self, name: str) -> "MerkleProof":
        """Produce an inclusion proof for ``name`` against the current root."""
        if name not in self._leaves:
            raise MerkleLeafNotFoundError(f"no Merkle leaf named {name!r}")
        levels = self._ensure_levels()
        index = bisect_left(self._order, name)
        path: List[Tuple[bytes, bool]] = []
        for level in levels[:-1]:
            sibling_index = index ^ 1
            if sibling_index < len(level):
                path.append((level[sibling_index], sibling_index < index))
            index //= 2
        return MerkleProof(name=name, content_hash=self._leaves[name],
                           path=tuple(path), root=self.root())

    def snapshot(self) -> Dict[str, bytes]:
        """A copy of the leaf mapping (for persistence)."""
        return dict(self._leaves)

    @classmethod
    def from_snapshot(cls, leaves: Iterable[Tuple[str, bytes]]) -> "MerkleTree":
        tree = cls()
        for name, content_hash in leaves:
            tree.set_leaf_hash(name, content_hash)
        return tree


class MerkleProof:
    """An inclusion proof: leaf -> root path with sibling hashes."""

    def __init__(self, name: str, content_hash: bytes,
                 path: Tuple[Tuple[bytes, bool], ...], root: bytes) -> None:
        self.name = name
        self.content_hash = content_hash
        self.path = path
        self.root = root

    def verify(self, expected_root: bytes) -> None:
        """Raise :class:`IntegrityError` unless the proof matches the root."""
        current = _leaf_hash(self.name, self.content_hash)
        for sibling, sibling_is_left in self.path:
            if sibling_is_left:
                current = _node_hash(sibling, current)
            else:
                current = _node_hash(current, sibling)
        if not constant_time_equal(current, expected_root):
            raise IntegrityError(
                f"Merkle proof for {self.name!r} does not match root")
