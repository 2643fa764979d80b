"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper: it runs the
experiment on the simulated substrate, prints the same rows/series the
paper reports plus a paper-vs-measured comparison, and asserts the *shape*
(orderings, ratios, crossovers). Wall-clock timing of the harness itself is
captured through pytest-benchmark with a single round — the interesting
numbers are the virtual-time results, not the harness runtime.
"""

import pytest

from repro.sim.core import Simulator
from repro.tee.epc import EnclavePageCache
from repro.tee.loader import EnclaveLoader


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def load_into_roomy_epc(image, scope):
    """Load ``image`` into an EPC that holds it whole: nothing is evicted."""
    sim = Simulator()
    epc = EnclavePageCache(sim, size_bytes=image.total_bytes,
                           usable_fraction=1.0)
    return sim.run_process(EnclaveLoader(sim, epc).load(image, scope=scope))


@pytest.fixture()
def bench_once(benchmark):
    """Fixture form of :func:`run_once`."""

    def runner(fn):
        return run_once(benchmark, fn)

    return runner
