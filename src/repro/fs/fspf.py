"""The file-system protection file (FSPF).

SCONE stores the shield's metadata — which files exist, their nonces, and
their content hashes — in a protection file kept on the untrusted volume.
The FSPF is itself encrypted and authenticated under the file-system key,
and the Merkle root over the metadata is the file-system *tag* referenced by
PALAEMON policies (``fspf_key`` / ``fspf_tag`` in List 1).

The FSPF keeps one live :class:`~repro.crypto.merkle.MerkleTree` in sync
with its entries: ``set_entry``/``remove_entry`` update the corresponding
leaf in place, so ``tag()`` is an O(1) cached-root read on the hot path
instead of rebuilding the tree from every entry per call.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict

from repro.crypto.merkle import MerkleTree
from repro.crypto.symmetric import SecretBox
from repro.errors import IntegrityError


@dataclass
class FileEntry:
    """Shield metadata for one file."""

    ciphertext_hash: bytes
    size: int


class FileSystemProtectionFile:
    """Serializable shield metadata, sealed under the FS key."""

    VERSION = 1

    def __init__(self) -> None:
        self.entries: Dict[str, FileEntry] = {}
        self._tree = MerkleTree()

    def set_entry(self, path: str, ciphertext_hash: bytes, size: int) -> None:
        self.entries[path] = FileEntry(ciphertext_hash=ciphertext_hash,
                                       size=size)
        self._tree.set_leaf_hash(path, ciphertext_hash)

    def tag(self) -> bytes:
        """The file-system tag: Merkle root over all file ciphertexts."""
        return self._tree.root()

    def seal(self, box: SecretBox) -> bytes:
        """Encrypt + authenticate the FSPF for storage on the volume."""
        payload = pickle.dumps({
            "version": self.VERSION,
            "entries": {path: (entry.ciphertext_hash, entry.size)
                        for path, entry in self.entries.items()},
        })
        return box.seal(payload, associated_data=b"fspf")

    @classmethod
    def unseal(cls, box: SecretBox, sealed: bytes) -> "FileSystemProtectionFile":
        """Decrypt and validate an FSPF blob; integrity failures raise."""
        payload = pickle.loads(box.open(sealed, associated_data=b"fspf"))
        if payload.get("version") != cls.VERSION:
            raise IntegrityError("unsupported FSPF version")
        fspf = cls()
        for path, (ciphertext_hash, size) in payload["entries"].items():
            fspf.set_entry(path, ciphertext_hash, size)
        return fspf
