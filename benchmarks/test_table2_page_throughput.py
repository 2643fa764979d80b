"""Table II — enclave page-operation throughput.

Regenerates the four components (bookkeeping, eviction, measurement,
addition) by timing one simulated load of a fixed byte volume into a full
EPC, and checks the headline relation: measurement is ~an order of
magnitude slower than everything else.
"""

from repro import calibration
from repro.benchlib.tables import PaperComparison, format_table, paper_vs_measured
from repro.sim.core import Simulator
from repro.tee.epc import EnclavePageCache
from repro.tee.image import build_image
from repro.tee.loader import EnclaveLoader, MeasurementScope

from benchmarks.conftest import run_once

_VOLUME_MB = 64


def _measure_component_throughputs():
    """Time one 64 MB load into a full EPC; return MB/s per component."""
    image = build_image("table2", code_size=calibration.MB,
                        data_size=0,
                        heap_bytes=(_VOLUME_MB - 1) * calibration.MB)
    sim = Simulator()
    epc = EnclavePageCache(sim, size_bytes=image.total_bytes,
                           usable_fraction=1.0)
    loader = EnclaveLoader(sim, epc)

    def main():
        # Another enclave already fills the EPC, so every page of this
        # load evicts one of its pages.
        yield sim.process(epc.allocate(epc.usable_bytes))
        report = yield sim.process(
            loader.load(image, scope=MeasurementScope.ALL_PAGES))
        return report

    report = sim.run_process(main())
    total_mb = image.total_bytes / calibration.MB
    return {
        "Bookkeeping": total_mb / report.bookkeeping_seconds,
        "Eviction": total_mb / report.eviction_seconds,
        "Measurement": total_mb / report.measurement_seconds,
        "Addition": total_mb / report.addition_seconds,
    }


def test_table2_page_throughput(benchmark):
    measured = run_once(benchmark, _measure_component_throughputs)
    paper = {
        "Bookkeeping": 1_292.0,
        "Eviction": 1_219.0,
        "Measurement": 148.0,
        "Addition": 2_853.0,
    }
    comparisons = [PaperComparison(name, paper[name], measured[name],
                                   unit="MB/s", rel_tolerance=0.10)
                   for name in paper]
    print()
    print(paper_vs_measured(comparisons,
                            title="Table II: page-operation throughput"))
    for comparison in comparisons:
        assert comparison.within_tolerance, comparison.metric

    # The paper's headline: measuring is about an order of magnitude slower
    # than evicting or adding pages.
    assert measured["Eviction"] / measured["Measurement"] > 5
    assert measured["Addition"] / measured["Measurement"] > 10
    assert measured["Bookkeeping"] / measured["Measurement"] > 5
