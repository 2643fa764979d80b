"""Fig 10 — monotonic counter throughput across five implementations.

Platform counters vs a file-based counter in native / SGX / +encrypted FS /
+PALAEMON strict modes, plus the related-work baselines (TPM, ROTE). The
headline result: file-based counters protected by PALAEMON's tag mechanism
are 5 orders of magnitude faster than platform counters.
"""

from repro import calibration
from repro.benchlib.tables import PaperComparison, format_table, paper_vs_measured
from repro.counters.filecounter import FileCounter, FileCounterMode
from repro.counters.rote import ROTECounterGroup
from repro.sim.core import Simulator
from repro.tee.counters import PlatformCounterService, TPMCounterService

from benchmarks.conftest import run_once


def _rate(increment_factory, increments):
    """Increments per second of ``increment_factory(simulator)()``."""
    simulator = Simulator()
    increment = increment_factory(simulator)

    def main():
        start = simulator.now
        for _ in range(increments):
            yield simulator.process(increment())
        return increments / (simulator.now - start)

    return simulator.run_process(main())


def _nvram(service_class):
    """Increment one counter of an NVRAM counter service."""
    def factory(simulator):
        service = service_class(simulator)
        service.create("c")
        return lambda: service.increment("c")
    return factory


def _file(mode):
    return lambda simulator: FileCounter(simulator, mode).increment


def _measure_all():
    return {
        "Counter (SGX platform)": _rate(_nvram(PlatformCounterService),
                                        increments=30),
        "TPM counter": _rate(_nvram(TPMCounterService), increments=30),
        "ROTE (4 servers)": _rate(
            lambda sim: ROTECounterGroup(sim, group_size=4).increment,
            increments=200),
        "Native": _rate(_file(FileCounterMode.NATIVE), increments=300),
        "SGX": _rate(_file(FileCounterMode.SGX), increments=300),
        "+ encrypted FS": _rate(_file(FileCounterMode.ENCRYPTED),
                                increments=300),
        "+ Palaemon": _rate(_file(FileCounterMode.STRICT), increments=300),
    }


def test_fig10_monotonic_counters(benchmark):
    rates = run_once(benchmark, _measure_all)

    print()
    print(format_table(["variant", "increments/s"],
                       [[name, rate] for name, rate in rates.items()],
                       title="Fig 10: monotonic counter throughput"))

    comparisons = [
        PaperComparison("SGX platform", 13, rates["Counter (SGX platform)"],
                        unit="incr/s", rel_tolerance=0.3),
        PaperComparison("TPM", 10, rates["TPM counter"], unit="incr/s",
                        rel_tolerance=0.3),
        PaperComparison("ROTE 4 servers", 500, rates["ROTE (4 servers)"],
                        unit="incr/s", rel_tolerance=0.4),
        PaperComparison("file native", 682_721, rates["Native"],
                        unit="incr/s", rel_tolerance=0.05),
        PaperComparison("file SGX", 1_380_381, rates["SGX"], unit="incr/s",
                        rel_tolerance=0.05),
        PaperComparison("file +encrypted", 1_473_748,
                        rates["+ encrypted FS"], unit="incr/s",
                        rel_tolerance=0.05),
        PaperComparison("file +Palaemon", 1_463_140, rates["+ Palaemon"],
                        unit="incr/s", rel_tolerance=0.05),
    ]
    print(paper_vs_measured(comparisons, title="paper vs measured"))
    for comparison in comparisons:
        assert comparison.within_tolerance, comparison.metric

    # Persist machine-readable results for external plotting.
    from repro.benchlib.export import export_experiment

    export_experiment("results/fig10.json", "fig10",
                      comparisons=comparisons,
                      extra={"rates": {name: rate
                                       for name, rate in rates.items()}})

    # The headline: 5 orders of magnitude between platform counters and the
    # PALAEMON-protected file counter.
    assert rates["+ Palaemon"] / rates["Counter (SGX platform)"] >= 1e5

    # The figure's internal orderings.
    assert rates["SGX"] > rates["Native"]              # memory-mapped files
    assert rates["+ encrypted FS"] > rates["SGX"]      # shield caching
    assert rates["+ Palaemon"] < rates["+ encrypted FS"]  # tag-push overhead
    assert rates["+ Palaemon"] > 0.99 * rates["+ encrypted FS"]  # ...slight
    # Related-work ordering: platform < ROTE < file-based.
    assert (rates["Counter (SGX platform)"] < rates["ROTE (4 servers)"]
            < rates["Native"])
