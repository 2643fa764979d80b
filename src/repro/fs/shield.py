"""The file-system shield: transparent encryption with tag verification.

Inside the TEE, applications see plaintext files; the untrusted block store
only ever sees ciphertext. The shield maintains the FSPF and pushes the
current tag to a :class:`TagListener` (PALAEMON, in the full system) on the
three events §III-D names: file close, explicit sync, and process exit.

Tag verification on open detects both tampering and rollback: a store
restored from an old snapshot carries the *old* tag, which no longer matches
the expected tag recorded at PALAEMON.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.symmetric import SecretBox
from repro.errors import IntegrityError, StorageFaultError, TagMismatchError
from repro.fs.blockstore import BlockStore
from repro.fs.fspf import FileSystemProtectionFile

#: Called with the new tag whenever the shield persists state.
TagListener = Callable[[bytes], None]

_FSPF_PATH = "/.fspf"


class ProtectedFileSystem:
    """A transparently encrypted, tag-protected view over a block store."""

    def __init__(self, store: BlockStore, fs_key: bytes,
                 rng: DeterministicRandom,
                 tag_listener: Optional[TagListener] = None) -> None:
        self.store = store
        self._box = SecretBox(fs_key, rng.fork(b"fs-nonces"))
        self._rng = rng
        self.tag_listener = tag_listener
        self._fspf = FileSystemProtectionFile()
        self._cache: Dict[str, bytes] = {}
        # Store write generation at which each cached path was last
        # validated against its FSPF hash; sync() skips re-reading paths
        # whose backing blocks have not changed since.
        self._validated_generation: Dict[str, int] = {}
        self.decrypt_count = 0
        if store.exists(_FSPF_PATH):
            self._fspf = FileSystemProtectionFile.unseal(
                self._box, store.read(_FSPF_PATH))

    # -- mounting ---------------------------------------------------------

    def verify_tag(self, expected_tag: bytes) -> None:
        """Check the actual tag against PALAEMON's expected tag.

        This is the mount-time freshness check: a mismatch means the volume
        was tampered with or rolled back since the expected tag was pushed.
        """
        actual = self.tag()
        if actual != expected_tag:
            # The volume failed its freshness check: every cached
            # plaintext was decrypted from state that can no longer be
            # trusted, so serving it from read() would leak exactly what
            # the tag check exists to prevent.
            self._cache.clear()
            self._validated_generation.clear()
            raise TagMismatchError(
                f"file system tag mismatch on {self.store.name!r}: "
                f"expected {expected_tag.hex()[:16]}..., "
                f"actual {actual.hex()[:16]}...")

    def tag(self) -> bytes:
        """The current file-system tag (Merkle root over ciphertexts)."""
        return self._fspf.tag()

    # -- file operations ----------------------------------------------------

    def write(self, path: str, plaintext: bytes) -> None:
        """Encrypt and stage ``plaintext`` at ``path`` (not yet durable)."""
        self._check_path(path)
        ciphertext = self._box.seal(plaintext, associated_data=path.encode())
        self.store.write(path, ciphertext)
        self._fspf.set_entry(path, sha256(ciphertext), len(plaintext))
        self._cache[path] = plaintext
        self._validated_generation[path] = self.store.generation(path)

    def read(self, path: str) -> bytes:
        """Read and transparently decrypt ``path``, verifying integrity."""
        self._check_path(path)
        if path in self._cache:
            return self._cache[path]
        if path not in self._fspf.entries:
            raise FileNotFoundError(path)
        ciphertext = self.store.read(path)
        entry = self._fspf.entries[path]
        if sha256(ciphertext) != entry.ciphertext_hash:
            raise IntegrityError(f"file {path!r} does not match its FSPF hash")
        plaintext = self._box.open(ciphertext, associated_data=path.encode())
        self.decrypt_count += 1
        self._cache[path] = plaintext
        self._validated_generation[path] = self.store.generation(path)
        return plaintext

    def exists(self, path: str) -> bool:
        return path in self._fspf.entries

    # -- tag persistence -----------------------------------------------------

    def close_file(self, path: str) -> bytes:
        """File close: persist the FSPF and push the tag (§III-D event i)."""
        self._cache.pop(path, None)
        return self._persist()

    def sync(self) -> bytes:
        """Explicit sync: persist and push the tag (§III-D event ii).

        Sync is also the revalidation point for the plaintext cache: an
        entry whose backing ciphertext no longer matches its FSPF hash
        (tampered, deleted, or unreadable underneath us) is evicted, so a
        later read() re-verifies against the store instead of serving a
        plaintext the store no longer backs. Paths whose store write
        generation is unchanged since their last validation are skipped —
        their blocks cannot have changed, so sync does not re-read and
        re-hash them.
        """
        for path in list(self._cache):
            entry = self._fspf.entries.get(path)
            if entry is None or not self.store.exists(path):
                self._evict(path)
                continue
            generation = self.store.generation(path)
            if generation == self._validated_generation.get(path):
                continue
            try:
                ciphertext = self.store.read(path)
            except StorageFaultError:
                self._evict(path)
                continue
            if sha256(ciphertext) != entry.ciphertext_hash:
                self._evict(path)
            else:
                self._validated_generation[path] = generation
        return self._persist()

    def on_exit(self) -> bytes:
        """Process exit: persist and push the tag (§III-D event iii)."""
        self._cache.clear()
        self._validated_generation.clear()
        return self._persist()

    def _evict(self, path: str) -> None:
        self._cache.pop(path, None)
        self._validated_generation.pop(path, None)

    def _persist(self) -> bytes:
        self.store.write(_FSPF_PATH, self._fspf.seal(self._box))
        tag = self.tag()
        if self.tag_listener is not None:
            self.tag_listener(tag)
        return tag

    @staticmethod
    def _check_path(path: str) -> None:
        if path == _FSPF_PATH:
            raise ValueError(f"{_FSPF_PATH} is reserved for the shield")
        if not path.startswith("/"):
            raise ValueError(f"paths must be absolute, got {path!r}")
