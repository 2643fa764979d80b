"""Dispatch-pipeline load benchmark: admission control under an N-client
burst.

Not a paper figure — a repo-trajectory benchmark guarding the unified
operation-dispatch layer (``repro.core.dispatch``). A burst of clients
fires timed ``tag.update`` requests through
:meth:`Dispatcher.dispatch` against a tight admission configuration;
the benchmark asserts the load-shedding contract:

- excess requests are **shed** with the typed ``overloaded`` error code
  (never an untyped failure, never a crash, never an unbounded queue);
- **admitted** requests all succeed and pay the real group-commit write
  path, so the p50/p99 latencies (via the shared
  ``repro.sim.metrics.summarize``) reflect queueing plus the disk model;
- the accounting closes: admitted + shed equals requests sent.

The default burst's document is exported to
``results/dispatch_load.json``; ``python -m repro bench dispatch``
regenerates it.
"""

from repro.benchlib import dispatchbench
from repro.benchlib.export import export_experiment

from benchmarks.conftest import run_once


def test_burst_sheds_excess_load(benchmark):
    """The default burst overloads: typed shedding + successful admits."""
    document = run_once(benchmark, dispatchbench.run_benchmark)
    admitted = document["admitted"]
    shed = document["shed"]
    print()
    print(f"{document['requests_total']} requests -> "
          f"{admitted['count']} admitted "
          f"(p50 {admitted['latency']['p50'] * 1e3:.1f}ms, "
          f"p99 {admitted['latency']['p99'] * 1e3:.1f}ms), "
          f"{shed['count']} shed {shed['by_reason']}")

    # The burst overloads, and every shed request carries exactly the
    # typed ``overloaded`` code.
    assert shed["by_reason"]["queue_full"] >= 1
    assert shed["codes"] == ["overloaded"]
    # Shedding is not lockout: at least one admit per concurrency slot,
    # and admitted requests pay the real write path.
    assert admitted["count"] >= document["config"]["max_concurrency"]
    assert admitted["latency"]["p99"] >= admitted["latency"]["p50"] > 0
    # The accounting closes.
    assert admitted["count"] + shed["count"] == document["requests_total"]
    # Only simulated time and counters are measured: a rerun is identical.
    assert dispatchbench.run_benchmark() == document

    export_experiment("results/dispatch_load.json", "dispatch_load",
                      extra=document)


def test_generous_limits_shed_nothing(benchmark):
    """With capacity for the whole burst, admission is invisible."""
    document = run_once(benchmark, lambda: dispatchbench.run_benchmark(
        clients=8, requests_per_client=2, policies=40,
        max_concurrency=64, max_queue=128, queue_deadline=5.0))
    assert document["shed"]["count"] == 0
    assert document["admitted"]["count"] == document["requests_total"]
