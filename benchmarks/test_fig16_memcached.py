"""Fig 16 — memcached throughput/latency (memtier-shaped GET/SET mix).

Native (stunnel TLS) vs PALAEMON EMU vs PALAEMON HW. At sub-3 ms latencies,
hardware reaches 59.5% and emulation 65.3% of native throughput; PALAEMON
injects the TLS material so the enclave terminates TLS itself. That TLS
termination is priced inside each mode's calibrated service time; no
input of the server models it.
"""

from repro import calibration
from repro.apps.kvstore import MemcachedServer
from repro.benchlib.harness import rate_sweep
from repro.benchlib.tables import PaperComparison, format_table, paper_vs_measured
from repro.crypto.primitives import DeterministicRandom
from repro.tee.enclave import ExecutionMode

from benchmarks.conftest import run_once

_MODES = {
    "Native": ExecutionMode.NATIVE,
    "Palaemon EMU": ExecutionMode.EMULATED,
    "Palaemon HW": ExecutionMode.HARDWARE,
}


def _setup(mode):
    def setup(simulator):
        server = MemcachedServer(simulator, mode=mode)
        rng = DeterministicRandom(b"memtier")
        for i in range(100):
            server.set(f"key-{i}", b"v" * 64)

        def factory(request_id):
            # memtier default: 1:10 SET:GET ratio.
            if request_id % 11 == 0:
                yield simulator.process(server.handle_set(
                    f"key-{request_id % 100}", b"w" * 64))
            else:
                value = yield simulator.process(server.handle_get(
                    f"key-{request_id % 100}"))
                assert value is not None

        return factory

    return setup


def _sweep_all():
    rates = (60_000, 150_000, 240_000, 300_000, 400_000, 520_000)
    return {name: rate_sweep(name, _setup(mode), rates, duration=0.02)
            for name, mode in _MODES.items()}


def test_fig16_memcached(benchmark):
    results = run_once(benchmark, _sweep_all)

    rows = []
    for name, result in results.items():
        for offered, achieved, latency_ms in result.rows():
            rows.append([name, offered, achieved, latency_ms])
    print()
    print(format_table(
        ["variant", "offered (req/s)", "achieved (req/s)", "mean lat (ms)"],
        rows, title="Fig 16: memcached"))

    # The paper reads throughput at the <3 ms latency bound.
    knees = {name: result.knee(latency_limit=0.003)
             for name, result in results.items()}
    native = knees["Native"]
    comparisons = [
        PaperComparison("native peak", calibration.MEMCACHED_NATIVE_PEAK_RPS,
                        native, unit="req/s", rel_tolerance=0.15),
        PaperComparison("HW fraction", 0.595, knees["Palaemon HW"] / native,
                        rel_tolerance=0.12),
        PaperComparison("EMU fraction", 0.653,
                        knees["Palaemon EMU"] / native, rel_tolerance=0.12),
    ]
    print(paper_vs_measured(comparisons, title="paper vs measured"))
    for comparison in comparisons:
        assert comparison.within_tolerance, comparison.metric

    assert knees["Palaemon HW"] < knees["Palaemon EMU"] < native
