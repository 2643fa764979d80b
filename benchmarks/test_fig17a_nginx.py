"""Fig 17a — NGINX GETs on 67 kB files across five variants.

Native; PALAEMON EMU/HW (TLS material injected, plain docroot); and
EMU/HW "+shield" where every served file is encrypted on disk. TLS
termination is priced inside each variant's calibrated service time; no
input of the server models it. The reproduced shape: SGX alone costs
little (EMU ~ HW), but encrypting all files costs far more than SGX
itself.
"""

from repro import calibration
from repro.apps.webserver import NginxServer, NginxVariant
from repro.benchlib.harness import rate_sweep
from repro.benchlib.tables import PaperComparison, format_table, paper_vs_measured
from repro.crypto.primitives import DeterministicRandom

from benchmarks.conftest import run_once


def _setup(variant):
    def setup(simulator):
        server = NginxServer(simulator, variant,
                             rng=DeterministicRandom(b"nginx-docs"))
        page = DeterministicRandom(b"page").bytes(calibration.NGINX_FILE_SIZE)
        server.publish("/page.html", page)

        def factory(_request_id):
            content = yield simulator.process(
                server.handle_get("/page.html"))
            assert content is not None
            assert len(content) == calibration.NGINX_FILE_SIZE

        return factory

    return setup


def _sweep_all():
    rates = (1_000, 2_500, 4_000, 5_500, 7_000, 9_000)
    return {variant: rate_sweep(variant.value, _setup(variant), rates,
                                duration=0.5)
            for variant in NginxVariant}


def test_fig17a_nginx(benchmark):
    results = run_once(benchmark, _sweep_all)

    rows = []
    for variant, result in results.items():
        for offered, achieved, latency_ms in result.rows():
            rows.append([variant.value, offered, achieved, latency_ms])
    print()
    print(format_table(
        ["variant", "offered (req/s)", "achieved (req/s)", "mean lat (ms)"],
        rows, title="Fig 17a: NGINX, 67 kB GETs"))

    knees = {variant: result.knee(latency_limit=0.050)
             for variant, result in results.items()}
    native = knees[NginxVariant.NATIVE]
    comparisons = [
        PaperComparison("native peak", calibration.NGINX_NATIVE_PEAK_RPS,
                        native, unit="req/s", rel_tolerance=0.15),
        PaperComparison("HW fraction",
                        calibration.NGINX_PALAEMON_HW_FRACTION,
                        knees[NginxVariant.PALAEMON_HW] / native,
                        rel_tolerance=0.12),
        PaperComparison("shield HW fraction",
                        calibration.NGINX_SHIELD_HW_FRACTION,
                        knees[NginxVariant.SHIELD_HW] / native,
                        rel_tolerance=0.12),
    ]
    print(paper_vs_measured(comparisons, title="paper vs measured"))
    for comparison in comparisons:
        assert comparison.within_tolerance, comparison.metric

    # Shape: native > palaemon (EMU ~ HW) > shield (EMU ~ HW).
    assert native > knees[NginxVariant.PALAEMON_EMU]
    assert knees[NginxVariant.PALAEMON_HW] > knees[NginxVariant.SHIELD_EMU]
    # EMU ~ HW within each family ("little difference... since not much
    # paging is taking place").
    emu_hw_gap = (knees[NginxVariant.PALAEMON_EMU]
                  - knees[NginxVariant.PALAEMON_HW]) / native
    assert emu_hw_gap < 0.10
    # Encrypting all files costs more than SGX itself.
    sgx_cost = native - knees[NginxVariant.PALAEMON_HW]
    shield_cost = (knees[NginxVariant.PALAEMON_HW]
                   - knees[NginxVariant.SHIELD_HW])
    assert shield_cost > sgx_cost
