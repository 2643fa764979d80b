"""Fig 13 — the approval service.

Left: throughput/latency for native/PALAEMON x with/without TLS on the same
rack; the PALAEMON-with-TLS knee sits near 210 req/s. Right: response
latency across five geographic deployments, network-dominated up to ~1.36 s
intercontinental worst case.
"""

from repro import calibration
from repro.benchlib.harness import rate_sweep
from repro.benchlib.tables import PaperComparison, format_table, paper_vs_measured
from repro.core.board import AccessRequest, ApprovalService
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair
from repro.sim.core import Simulator
from repro.sim.network import Site

from benchmarks.conftest import run_once

_VARIANTS = {
    "Native w/o TLS": dict(in_tee=False, use_tls=False),
    "Native w/ TLS": dict(in_tee=False, use_tls=True),
    "Pal. w/o TLS": dict(in_tee=True, use_tls=False),
    "Pal. w/ TLS": dict(in_tee=True, use_tls=True),
}

_GEO_SITES = {
    "Same rack": Site.SAME_RACK,
    "Same DC": Site.SAME_DC,
    "<= 300 km": Site.REGIONAL_300KM,
    "<= 7,000 km": Site.CONTINENTAL_7000KM,
    "<= 11,000 km": Site.INTERCONTINENTAL_11000KM,
}


def _request():
    return AccessRequest(policy_name="p", operation="update",
                         requester_fingerprint=b"\x01" * 16)


def _variant_setup(variant_kwargs):
    def setup(simulator):
        keys = KeyPair.generate(DeterministicRandom(b"member"), bits=512)
        service = ApprovalService(simulator, "member", keys,
                                  **variant_kwargs)

        def factory(_request_id):
            yield simulator.process(service.decide(
                _request(), caller_site=Site.SAME_RACK))

        return factory

    return setup


def _throughput_sweep():
    rates = (40, 90, 150, 190, 230, 320, 450)
    return {name: rate_sweep(name, _variant_setup(kwargs), rates,
                             duration=2.0)
            for name, kwargs in _VARIANTS.items()}


def _geo_latencies():
    """Single-request response latency per deployment distance."""
    results = {}
    for name, site in _GEO_SITES.items():
        sim = Simulator()
        keys = KeyPair.generate(DeterministicRandom(b"geo"), bits=512)
        service = ApprovalService(sim, "member", keys, site=site,
                                  in_tee=True, use_tls=True)

        def main(service=service, sim=sim):
            start = sim.now
            verdict = yield sim.process(service.decide(
                _request(), caller_site=Site.SAME_RACK))
            assert verdict is not None and verdict.approve
            return sim.now - start

        results[name] = sim.run_process(main())
    return results


def test_fig13_left_throughput_latency(benchmark):
    curves = run_once(benchmark, _throughput_sweep)

    rows = []
    for name, result in curves.items():
        for offered, achieved, latency_ms in result.rows():
            rows.append([name, offered, achieved, latency_ms])
    print()
    print(format_table(
        ["variant", "offered (req/s)", "achieved (req/s)", "mean lat (ms)"],
        rows, title="Fig 13 (left): approval service, rack deployment"))

    knees = {name: result.knee(latency_limit=0.1)
             for name, result in curves.items()}
    comparison = PaperComparison("Pal. w/ TLS knee", 210,
                                 knees["Pal. w/ TLS"], unit="req/s",
                                 rel_tolerance=0.15)
    print(paper_vs_measured([comparison], title="paper vs measured"))
    assert comparison.within_tolerance

    # Native beats PALAEMON; dropping TLS helps both.
    assert knees["Native w/ TLS"] > knees["Pal. w/ TLS"]
    assert knees["Pal. w/o TLS"] >= knees["Pal. w/ TLS"]
    assert knees["Native w/o TLS"] >= knees["Native w/ TLS"]


def test_fig13_right_geographic_latency(benchmark):
    latencies = run_once(benchmark, _geo_latencies)

    print()
    print(format_table(
        ["deployment", "response latency (ms)"],
        [[name, latency * 1e3] for name, latency in latencies.items()],
        title="Fig 13 (right): approval latency by distance"))

    # Monotonically increasing with distance; network-dominated at the end.
    ordered = list(latencies.values())
    assert ordered == sorted(ordered)
    # The intercontinental case lands well within the figure's <=1.36 s
    # worst case and is dominated by network time (3 RTTs > service time).
    far = latencies["<= 11,000 km"]
    assert 0.3 <= far <= 1.4
    service_seconds = calibration.APPROVAL_TEE_TLS_SERVICE_SECONDS
    assert far > 10 * service_seconds
    # Nearby deployments are service-time bound instead.
    assert latencies["Same rack"] < 2 * service_seconds
