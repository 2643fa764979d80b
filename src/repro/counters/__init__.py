"""Monotonic counter implementations (the Fig 10 contenders).

Five ways to count monotonically, with wildly different throughput:

- SGX platform counters — the hardware counters PALAEMON rejects for
  per-update use (13/s, wear out):
  :class:`repro.tee.counters.PlatformCounterService`.
- TPM 2.0 NVRAM counters (~10/s, 300k-1.4M writes): the same rate-limited
  NVRAM model, :class:`repro.tee.counters.TPMCounterService`.
- :class:`ROTECounterGroup` — ROTE-style distributed counters (~500/s LAN).
- :class:`FileCounter` — a counter in a file, in four modes: native, inside
  SGX (memory-mapped), + transparent encryption, + PALAEMON strict mode.

The file-based variants are what the paper's design enables: because the
file system is rollback-protected by tags, an ordinary file is as safe as a
hardware counter under the crash-as-attack assumption — and 5 orders of
magnitude faster.

Each counter's ``increment()`` is a simulation process returning the new
value (the NVRAM services take the counter's id); its distinctive time cost
is the experiment of Fig 10.
"""

from repro.counters.rote import ROTECounterGroup
from repro.counters.filecounter import FileCounter, FileCounterMode

__all__ = [
    "FileCounter",
    "FileCounterMode",
    "ROTECounterGroup",
]
