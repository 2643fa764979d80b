"""Dispatch-pipeline load benchmark: admission control under a burst.

Drives an N-client burst of timed ``tag.update`` requests through
:meth:`~repro.core.dispatch.Dispatcher.dispatch` against a deliberately
tight :class:`~repro.core.dispatch.AdmissionControl` configuration, so
the three admission outcomes all occur:

- **admitted** requests run the real group-commit write path and succeed;
- **queued** requests wait their turn (FIFO, on the simulator clock) and
  then succeed, contributing the latency tail;
- **shed** requests come back immediately with the typed ``overloaded``
  error code — load shedding under heavy traffic — instead of growing an
  unbounded backlog.

Everything measured is simulated time and counters, so the document is
identical across runs of the same configuration. Used by
``benchmarks/test_dispatch_load.py``, which exports
``results/dispatch_load.json`` (``python -m repro bench dispatch``).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from repro.benchlib import tagbench
from repro.core.dispatch import AdmissionControl, RouteLimits
from repro.crypto.primitives import sha256
from repro.sim.core import Event
from repro.sim.metrics import summarize, summary_to_dict

#: Clients do not all fire in the same instant: client ``i`` starts at
#: ``i * CLIENT_STAGGER_SECONDS``, a sub-millisecond ramp that keeps the
#: burst bursty while making the admission order deterministic and
#: readable.
CLIENT_STAGGER_SECONDS = 0.0002


def run_benchmark(clients: int = 32, requests_per_client: int = 4,
                  policies: int = 200, max_concurrency: int = 4,
                  max_queue: int = 8, queue_deadline: float = 0.5,
                  ) -> Dict[str, Any]:
    """Run the burst; return the deterministic result document."""
    simulator, service = tagbench.build_service(
        "dispatchbench", b"dispatchbench", policies)
    service.dispatcher.admission = AdmissionControl(
        simulator, service.telemetry,
        limits=RouteLimits(max_concurrency=max_concurrency,
                           max_queue=max_queue,
                           queue_deadline=queue_deadline))
    outcomes: List[Dict[str, Any]] = []

    def client(index: int) -> Generator[Event, Any, None]:
        yield simulator.timeout(index * CLIENT_STAGGER_SECONDS)
        for sequence in range(requests_per_client):
            target = tagbench._policy_name(
                (index * 13 + sequence * 7) % policies)
            request = {"route": "tag.update", "policy": target,
                       "service": "svc",
                       "tag": sha256(b"burst:%d:%d" % (index, sequence))}
            started = simulator.now
            reply = yield simulator.process(
                service.dispatcher.dispatch(request, transport="inprocess"),
                name=f"dispatch-{index}-{sequence}")
            outcomes.append({
                "client": index,
                "sequence": sequence,
                "ok": "ok" in reply,
                "code": reply.get("code"),
                "elapsed": simulator.now - started,
            })

    def burst() -> Generator[Event, Any, None]:
        yield simulator.all_of([
            simulator.process(client(index), name=f"client-{index}")
            for index in range(clients)])

    simulator.run_process(burst(), name="dispatch-burst")

    admitted = [o for o in outcomes if o["ok"]]
    shed = [o for o in outcomes if not o["ok"]]
    latency = summarize([o["elapsed"] for o in admitted], "admitted")
    metrics = service.telemetry.metrics
    shed_by_reason = {
        reason: int(metrics.counter("palaemon_admission_shed_total",
                                    route="tag.update", reason=reason).value)
        for reason in ("queue_full", "deadline", "at_capacity")}
    return {
        "config": {
            "clients": clients,
            "requests_per_client": requests_per_client,
            "policies": policies,
            "max_concurrency": max_concurrency,
            "max_queue": max_queue,
            "queue_deadline": queue_deadline,
        },
        "requests_total": len(outcomes),
        "admitted": {
            "count": len(admitted),
            "latency": summary_to_dict(latency),
        },
        "shed": {
            "count": len(shed),
            "codes": sorted({o["code"] for o in shed}),
            "by_reason": shed_by_reason,
        },
        "sim_seconds_total": round(
            max(o["elapsed"] for o in outcomes), 9),
    }
