"""Tracks how fast the host runs, so host times can be compared across runs.

The benchmark runs on shared virtual machines whose speed moves by tens
of percent within seconds, for reasons outside the program. Between ops,
the speedometer times a fixed snippet of the same kinds of work the
program does (a SHA-256 keystream and a Python byte loop, pickling small
records, big-integer modular exponentiation, dict and str operations).
A host time ``t`` measured near that sample is reported as
``t * REFERENCE_SECONDS / snippet time``: the time it would have taken on
a host where the snippet takes ``REFERENCE_SECONDS``. The snippet is
benchmark code, so no change to the program can make it faster.

Time spent in the snippet is removed from every interval measured with
:meth:`Speedometer.clock`.
"""

from __future__ import annotations

import bisect
import hashlib
import pickle
import statistics
import time
from typing import List

perf_counter = time.perf_counter

#: The snippet's median time on the reference host.
REFERENCE_SECONDS = 0.37e-3
#: A time is scaled by the median of this many samples around it.
NEIGHBOURS = 9

_DATA = bytes(range(256)) * 4
_MODULUS = 2 ** 384 - 317
_RECORDS = [{"tag": bytes(32), "clean": True, "runs": index}
            for index in range(200)]


def _snippet() -> int:
    key = hashlib.sha256(b"speedometer").digest()
    stream = bytearray()
    for counter in range(len(_DATA) // 32):
        stream.extend(hashlib.sha256(key + counter.to_bytes(8, "big"))
                      .digest())
    mixed = bytes(a ^ b for a, b in zip(_DATA, stream))
    records = pickle.loads(pickle.dumps(_RECORDS))
    table = {}
    for index in range(150):
        table[index] = str(index)
    return (pow(7, 2 ** 200 + 3, _MODULUS) + len(table) + len(records)
            + mixed[0])


class Speedometer:
    """Samples the host's speed and scales host times to the reference."""

    def __init__(self) -> None:
        self._spent = 0.0
        #: (clock time, snippet seconds) per sample, in clock order.
        self._at: List[float] = []
        self._took: List[float] = []

    def clock(self) -> float:
        """Host seconds, not counting time spent in samples."""
        return perf_counter() - self._spent

    def sample(self) -> None:
        started = perf_counter()
        _snippet()
        _snippet()
        took = perf_counter() - started
        self._spent += took
        self._at.append(self.clock())
        self._took.append(took / 2)

    def scale(self, at: float) -> float:
        """The factor for a time measured at clock time ``at``."""
        if not self._took:
            return 1.0
        index = bisect.bisect_left(self._at, at)
        low = max(0, index - NEIGHBOURS // 2)
        nearby = self._took[low:low + NEIGHBOURS]
        return REFERENCE_SECONDS / statistics.median(nearby)

    def scale_between(self, start: float, end: float) -> float:
        """The factor for an interval: the median snippet time in it."""
        low = bisect.bisect_left(self._at, start)
        high = bisect.bisect_right(self._at, end)
        inside = self._took[low:high]
        if len(inside) < NEIGHBOURS:
            return self.scale((start + end) / 2)
        return REFERENCE_SECONDS / statistics.median(inside)
