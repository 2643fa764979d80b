"""Fig 8 — attestation and configuration latencies.

Four phases per attestation (initialization, send quote, wait for
confirmation, receive configuration) across three services: IAS from
Europe, IAS from the US (close to Intel's servers), and a rack-local
PALAEMON. Each row runs Fig 9's attestation leg once, uncontended, and
reads the phases off the simulated clock. The reproduced shape: PALAEMON
completes in ~15 ms, an order of magnitude faster than either IAS
placement, whose wait phase dominates.
"""

from repro.benchlib.tables import PaperComparison, format_table, paper_vs_measured
from repro.runtime.startup import AttestationVariant, StartupModel
from repro.sim.core import Simulator
from repro.sim.network import Site

from benchmarks.conftest import run_once


def _attest_once(variant, ias_site=Site.IAS_US):
    sim = Simulator()
    model = StartupModel(sim, ias_site=ias_site)
    return sim.run_process(model.attest(variant))


def _measure():
    return {
        "IAS (EU)": _attest_once(AttestationVariant.IAS, Site.IAS_EU),
        "IAS (US)": _attest_once(AttestationVariant.IAS, Site.IAS_US),
        "Palaemon": _attest_once(AttestationVariant.PALAEMON),
    }


def test_fig8_attestation_latency(benchmark):
    phases = run_once(benchmark, _measure)

    rows = []
    for service, breakdown in phases.items():
        rows.append([service] + [breakdown[key] * 1e3 for key in
                                 ("initialization", "send_quote",
                                  "wait_confirmation", "receive_config")]
                    + [sum(breakdown.values()) * 1e3])
    print()
    print(format_table(
        ["service", "init (ms)", "send quote (ms)", "wait (ms)",
         "recv config (ms)", "total (ms)"],
        rows, title="Fig 8: attestation and configuration latencies"))

    totals = {service: sum(breakdown.values())
              for service, breakdown in phases.items()}
    comparisons = [
        PaperComparison("Palaemon total", 0.015, totals["Palaemon"],
                        unit="s"),
        PaperComparison("IAS (US) total", 0.280, totals["IAS (US)"],
                        unit="s"),
        PaperComparison("IAS (EU) total", 0.295, totals["IAS (EU)"],
                        unit="s"),
    ]
    print(paper_vs_measured(comparisons, title="paper vs measured"))
    for comparison in comparisons:
        assert comparison.within_tolerance, comparison.metric

    # Order-of-magnitude separation, as the paper reports.
    assert totals["IAS (US)"] / totals["Palaemon"] >= 10
    assert totals["IAS (EU)"] > totals["IAS (US)"]

    # Initialization is similar across services (TLS handshake dominated).
    inits = [breakdown["initialization"] for breakdown in phases.values()]
    assert max(inits) == min(inits)

    # The IAS wait phase dominates its total; PALAEMON's does not.
    assert (phases["IAS (US)"]["wait_confirmation"]
            > 0.5 * totals["IAS (US)"])
    assert (phases["Palaemon"]["wait_confirmation"]
            < 0.7 * totals["Palaemon"])
