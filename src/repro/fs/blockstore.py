"""The untrusted block store.

This is the adversary's playground: a plain path -> bytes mapping standing
in for the host file system / container volume. The attacker controls it
completely, so it supports ``snapshot()`` / ``restore()`` — the rollback
attack is literally restoring an old snapshot.
Nothing in here is trusted; all protection comes from the shield layered on
top.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import StorageFaultError


class BlockStore:
    """An untrusted persistent byte store with attack affordances."""

    def __init__(self, name: str = "volume") -> None:
        self.name = name
        self._files: Dict[str, bytes] = {}
        self.write_count = 0
        self.read_count = 0
        self.bytes_written = 0
        # Per-path write generations: every mutation — shielded write,
        # out-of-band tamper, snapshot restore — bumps the path's
        # generation, so readers can cheaply detect "blocks changed since
        # I last validated this path" without re-reading the content.
        self._generations: Dict[str, int] = {}
        self._write_epoch = 0
        #: Fault injection (:class:`repro.sim.faults.FaultPlan`), attached
        #: via ``FaultPlan.attach``.
        self.fault_plan = None

    def _check_fault(self, operation: str, path: str) -> None:
        if (self.fault_plan is not None
                and self.fault_plan.injects("store_fault",
                                            f"{self.name}:{operation}")):
            raise StorageFaultError(
                f"store {self.name!r}: injected {operation} failure "
                f"on {path!r}")

    # -- normal operation --------------------------------------------------

    def write(self, path: str, data: bytes) -> None:
        self._check_fault("write", path)
        self._files[path] = data
        self.write_count += 1
        self.bytes_written += len(data)
        self._bump(path)

    def read(self, path: str) -> bytes:
        self._check_fault("read", path)
        self.read_count += 1
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def delete(self, path: str) -> None:
        try:
            del self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None
        self._bump(path)

    def exists(self, path: str) -> bool:
        return path in self._files

    def generation(self, path: str) -> int:
        """Monotonic per-path write generation (0 = never written).

        Changes on every mutation of ``path``, including an attacker's
        ``restore``, so a cached validation made at generation
        ``g`` is still sound while ``generation(path) == g``.
        """
        return self._generations.get(path, 0)

    def _bump(self, path: str) -> None:
        self._write_epoch += 1
        self._generations[path] = self._write_epoch

    def list(self) -> List[str]:
        return sorted(self._files)

    # -- attack surface -----------------------------------------------------

    def snapshot(self) -> Dict[str, bytes]:
        """Capture the full store state (attacker checkpoint)."""
        return dict(self._files)

    def restore(self, snapshot: Dict[str, bytes]) -> None:
        """Roll the store back to an earlier snapshot (rollback attack)."""
        self._files = dict(snapshot)
        for path in self._files:
            self._bump(path)

    def scan_for(self, needle: bytes) -> List[str]:
        """Paths whose raw content contains ``needle``.

        Confidentiality tests use this: plaintext secrets must never be
        findable in the untrusted store.
        """
        return [path for path, data in self._files.items() if needle in data]
