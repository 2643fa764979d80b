"""File-based monotonic counters (Fig 10 variants b-e).

A counter stored in an ordinary file: open, read the integer, increment,
write back, close. Four modes match the figure:

- ``NATIVE``    — plain process, real file syscalls each increment.
- ``SGX``       — inside an enclave; the SCONE runtime memory-maps the file,
  so the per-increment syscall cost disappears (faster than native!).
- ``ENCRYPTED`` — the file lives in a shielded file system; the shield's
  write-back cache makes increments pure in-enclave memory operations.
- ``STRICT``    — like ENCRYPTED, plus the tag is pushed to PALAEMON on
  close, making the counter rollback-protected end to end.

The security of the file-based approach rests on the shield's tag +
PALAEMON's expected-tag store; the throughput rests on the fact that tags
are pushed on *close/sync/exit*, not on every increment.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Optional

from repro import calibration
from repro.crypto.primitives import DeterministicRandom
from repro.fs.blockstore import BlockStore
from repro.fs.shield import ProtectedFileSystem
from repro.sim.core import Event, Simulator

#: Cost of one native open/read/write/close increment cycle, from the
#: measured 682,721 increments/s (Fig 10 variant b).
_NATIVE_INCREMENT_SECONDS = 1.0 / calibration.FILE_COUNTER_NATIVE_RATE

#: Memory-mapped increment inside SGX: 1,380,381/s (variant c).
_SGX_INCREMENT_SECONDS = 1.0 / calibration.FILE_COUNTER_SGX_RATE

#: Shielded + cached increment: 1,473,748/s (variant d).
_ENCRYPTED_INCREMENT_SECONDS = 1.0 / calibration.FILE_COUNTER_ENCRYPTED_RATE

#: Strict mode amortizes the tag push across increments: 1,463,140/s (e).
_STRICT_INCREMENT_SECONDS = 1.0 / calibration.FILE_COUNTER_PALAEMON_RATE


class FileCounterMode(enum.Enum):
    """Execution variants of the file-based counter."""

    NATIVE = "native"
    SGX = "sgx"
    ENCRYPTED = "sgx+encrypted-fs"
    STRICT = "sgx+encrypted-fs+palaemon"

    @property
    def increment_seconds(self) -> float:
        return {
            FileCounterMode.NATIVE: _NATIVE_INCREMENT_SECONDS,
            FileCounterMode.SGX: _SGX_INCREMENT_SECONDS,
            FileCounterMode.ENCRYPTED: _ENCRYPTED_INCREMENT_SECONDS,
            FileCounterMode.STRICT: _STRICT_INCREMENT_SECONDS,
        }[self]


class FileCounter:
    """A counter persisted in a file, really backed by a (shielded) store."""

    COUNTER_PATH = "/counter"

    def __init__(self, simulator: Simulator, mode: FileCounterMode,
                 store: Optional[BlockStore] = None,
                 rng: Optional[DeterministicRandom] = None,
                 tag_listener: Optional[Callable[[bytes], None]] = None,
                 ) -> None:
        self.simulator = simulator
        self.mode = mode
        self.store = store if store is not None else BlockStore("counter-vol")
        rng = rng or DeterministicRandom(b"file-counter")
        if mode in (FileCounterMode.ENCRYPTED, FileCounterMode.STRICT):
            listener = tag_listener if mode is FileCounterMode.STRICT else None
            self.fs: Optional[ProtectedFileSystem] = ProtectedFileSystem(
                self.store, rng.fork(b"fs-key").bytes(32), rng.fork(b"fs"),
                tag_listener=listener)
            if not self.fs.exists(self.COUNTER_PATH):
                self.fs.write(self.COUNTER_PATH, b"0")
        else:
            self.fs = None
            if not self.store.exists(self.COUNTER_PATH):
                self.store.write(self.COUNTER_PATH, b"0")

    def increment(self) -> Generator[Event, Any, int]:
        yield self.simulator.timeout(self.mode.increment_seconds)
        value = self.read() + 1
        encoded = str(value).encode()
        if self.fs is not None:
            self.fs.write(self.COUNTER_PATH, encoded)
        else:
            self.store.write(self.COUNTER_PATH, encoded)
        return value

    def read(self) -> int:
        if self.fs is not None:
            return int(self.fs.read(self.COUNTER_PATH))
        return int(self.store.read(self.COUNTER_PATH))
