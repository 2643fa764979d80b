"""Measuring and reporting: the timed phase, the traced phase, the metrics.

``measure`` runs one workload the way the command line asks: several
set-ups (the median is ``setup_s``), one timed phase, then the output
checks. With ``trace=False`` it reports the end-to-end metrics; with
``trace=True`` it alternates untraced and traced slices of the timed phase
and reports the per-layer metrics, including the tracer's own overhead.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
from typing import Any, Dict, List, Optional, Tuple

from hosttrace import HostTracer, SpanTotals
from layers import build_tracer
from speedometer import Speedometer
from workloads import WORKLOADS, Workload

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Speed samples taken before and after each set-up.
SETUP_SAMPLES = 5
#: The traced run alternates this many untraced and traced slices.
TRACE_SLICES = 10
#: ``ops_per_s`` is the median rate over this many windows of
#: consecutive ops, so a short stall of the host does not set it.
RATE_WINDOWS = 20
#: Routes whose median dispatch time the traced run reports.
ROUTES = ("app.attest", "tag.update", "tag.get", "policy.create",
          "policy.read", "policy.update", "policy.delete")

Metric = Dict[str, Any]


def rss_kb() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def tail(latencies: List[float], preferred: int) -> Tuple[int, float, int]:
    """The highest percentile, from ``preferred`` (99 or 90) down, with at
    least ten samples beyond it: (percentile, value, samples beyond).
    Percentiles are nearest-rank."""
    ordered = sorted(latencies)
    for pct in [pct for pct in (99, 90) if pct <= preferred] + [50]:
        rank = max(1, math.ceil(len(ordered) * pct / 100))
        beyond = len(ordered) - rank
        if beyond >= 10 or pct == 50:
            return pct, ordered[rank - 1], beyond


def setup_workload(name: str, seed: int, size: str = "full",
                   repeats: int = SETUP_REPEATS,
                   ) -> Tuple[Workload, List[float]]:
    """Build and warm up ``repeats`` times; keep the last deployment.

    Returns the deployment and each set-up's time at the reference speed.
    """
    durations = []
    workload = None
    for _ in range(repeats):
        workload = None
        gc.collect()
        workload = WORKLOADS[name](seed, size=size)
        meter = workload.speedometer
        first = meter.clock()
        for _ in range(SETUP_SAMPLES):
            meter.sample()
        started = meter.clock()
        workload.setup()
        ended = meter.clock()
        for _ in range(SETUP_SAMPLES):
            meter.sample()
        durations.append((ended - started)
                         * meter.scale_between(first, meter.clock()))
    return workload, durations


class Phase:
    """What one slice of the timed phase did, for the deltas it needs."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.seconds = 0.0
        self.ops = 0
        self.messages = 0
        self.audit_records = 0
        self.histogram_samples = 0

    def run(self, seconds: float) -> None:
        workload = self.workload
        telemetry = workload.service.telemetry
        before = (len(workload.records), workload.network.messages_delivered,
                  len(telemetry.audit_log), histogram_samples(workload))
        clock = workload.speedometer.clock
        started = clock()
        workload.run_for(seconds)
        self.seconds += clock() - started
        self.ops += len(workload.records) - before[0]
        self.messages += workload.network.messages_delivered - before[1]
        self.audit_records += len(telemetry.audit_log) - before[2]
        self.histogram_samples += histogram_samples(workload) - before[3]


def histogram_samples(workload: Workload) -> int:
    return sum(len(series.samples)
               for series in workload.service.telemetry.metrics.series()
               if getattr(series, "kind", "") == "histogram")


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full", report=print) -> Dict[str, Any]:
    """One benchmark run; returns the result printed as the last line."""
    workload, setups = setup_workload(name, seed, size=size)
    report(f"workload {name}  seed {seed}  seconds {seconds:g}  "
           f"trace {int(trace)}  clients {workload.clients} (closed loop)")
    report("setup_s runs: " + ", ".join(f"{value:.3f}" for value in setups)
           + "  warm-up database bytes/op per window: "
           + ", ".join(f"{value:.0f}" for value in workload.warmup_windows))
    rss_before = rss_kb()
    untraced, traced = Phase(workload), Phase(workload)
    tracer: Optional[HostTracer] = None
    if trace:
        tracer = build_tracer()
        for index in range(TRACE_SLICES):
            if index % 2:
                tracer.install()
                workload.traced = True
                try:
                    traced.run(seconds / TRACE_SLICES)
                finally:
                    tracer.uninstall()
                    workload.traced = False
            else:
                untraced.run(seconds / TRACE_SLICES)
    else:
        untraced.run(seconds)
    rss_growth = rss_kb() - rss_before
    records = list(workload.records)
    user_bytes = workload.user_bytes
    problems = workload.failures + workload.check()
    for problem in problems[:10]:
        report(f"CHECK FAILED: {problem}")
    failed = sum(1 for record in records if not record[3])
    report(f"ops attempted {len(records)}, failed {failed}; output checks "
           + ("passed" if not problems else f"{len(problems)} failed"))
    if trace:
        spans = tracer.reduce()
        report_spans(spans, traced.ops, report)
        metrics = per_layer_metrics(tracer, spans, traced, untraced,
                                    records, user_bytes, rss_growth)
    else:
        metrics = end_to_end_metrics(workload, untraced, records, setups,
                                     report)
    for metric, value in metrics.items():
        report(f"  {metric:<36} {value['value']:>14.6g} {value['unit']}")
    return {"correct": not problems and failed == 0,
            "attempted": len(records), "failed": failed,
            "metrics": metrics}


def end_to_end_metrics(workload: Workload, phase: Phase,
                       records: List[tuple], setups: List[float],
                       report) -> Dict[str, Metric]:
    """Times are scaled to the reference speed (see ``speedometer``)."""
    meter = workload.speedometer
    raw = [record[1] - record[0] for record in records]
    latencies = [(record[1] - record[0]) * meter.scale(record[1])
                 for record in records]
    pct, tail_value, beyond = tail(latencies, workload.tail_percentile)
    report(f"op_tail_ms is p{pct}: {beyond} of {len(latencies)} samples "
           f"beyond it")
    report(f"unscaled host times: {len(records) / phase.seconds:.2f} ops/s, "
           f"p50 {statistics.median(raw) * 1e3:.3f} ms, "
           f"p{pct} {tail(raw, pct)[1] * 1e3:.3f} ms")
    report_drift(records, report)
    rss_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": _metric(windowed_rate(records, phase.seconds, meter),
                             "1/s"),
        "op_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": _metric(tail_value * 1e3, "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "rss_peak_mb": _metric(rss_peak_kb / 1024, "MB"),
    }


def windowed_rate(records: List[tuple], seconds: float,
                  meter: Speedometer) -> float:
    """Median over windows of consecutive completions of ops per second
    at the reference speed (the whole phase's unscaled rate when it has
    too few ops for windows)."""
    ends = sorted(record[1] for record in records)
    size = len(ends) // RATE_WINDOWS
    if size < 2:
        return len(ends) / seconds
    return statistics.median(
        size / ((ends[index + size] - ends[index])
                * meter.scale_between(ends[index], ends[index + size]))
        for index in range(0, len(ends) - size, size))


def report_drift(records: List[tuple], report) -> None:
    """First and last thirds of the phase: ops/s and database bytes/op."""
    if len(records) < 6:
        return
    start = min(record[0] for record in records)
    stop = max(record[1] for record in records)
    third = (stop - start) / 3
    parts = []
    for label, low in (("first", start), ("last", stop - third)):
        chosen = [record for record in records
                  if low <= record[1] < low + third or
                  (label == "last" and record[1] == stop)]
        if len(chosen) < 2:
            continue
        written = (chosen[-1][5] - chosen[0][5]) / (len(chosen) - 1)
        parts.append(f"{label} third {len(chosen) / third:.2f} ops/s, "
                     f"core.store.bytes_written {written:.0f} B/op")
    report("drift: " + "; ".join(parts))


def report_spans(spans: SpanTotals, ops: int, report,
                 limit: int = 25) -> None:
    """The traced spans by name, most self time first, per op."""
    ops = max(1, ops)
    report(f"{'span':<44} {'calls/op':>9} {'total ms/op':>12} "
           f"{'self ms/op':>11}")
    ranked = sorted(range(len(spans.names)),
                    key=lambda ident: -spans.self_time[ident])
    for ident in ranked[:limit]:
        if spans.calls[ident]:
            report(f"{spans.names[ident]:<44} "
                   f"{spans.calls[ident] / ops:>9.2f} "
                   f"{spans.total[ident] * 1e3 / ops:>12.4f} "
                   f"{spans.self_time[ident] * 1e3 / ops:>11.4f}")


def per_layer_metrics(tracer: HostTracer, spans: SpanTotals,
                      traced: Phase, untraced: Phase, records: List[tuple],
                      user_bytes: int, rss_growth_kb: int,
                      ) -> Dict[str, Metric]:
    counts = tracer.counts
    ops = max(1, traced.ops)
    wall_ms = traced.seconds * 1e3
    traced_records = [record for record in records if record[6]]

    def per_op_ms(seconds: float) -> float:
        return seconds * 1e3 / ops

    def per_op(count: float) -> float:
        return count / ops

    symmetric_s = spans.self_of("crypto.symmetric")
    symmetric_bytes = (counts["crypto.symmetric.sealed.bytes"]
                       + counts["crypto.symmetric.opened.bytes"])
    # User bytes are counted in every slice; scale to the traced ops.
    traced_user_bytes = user_bytes * traced.ops / max(1, len(records))
    metrics = {
        "trace.op_ms": _metric(wall_ms / ops, "ms/op"),
        "crypto.symmetric.self_ms": _metric(per_op_ms(symmetric_s), "ms/op"),
        "crypto.symmetric.bytes_sealed": _metric(
            per_op(counts["crypto.symmetric.sealed.bytes"]), "B/op"),
        "crypto.symmetric.bytes_opened": _metric(
            per_op(counts["crypto.symmetric.opened.bytes"]), "B/op"),
        "crypto.symmetric.mb_per_s": _metric(
            symmetric_bytes / 1e6 / symmetric_s if symmetric_s else 0.0,
            "MB/s"),
        "crypto.symmetric.op_share": _metric(
            symmetric_s * 1e3 / wall_ms, "1"),
        "crypto.signatures.self_ms": _metric(
            per_op_ms(spans.self_of("crypto.signatures")), "ms/op"),
        "crypto.signatures.keygen_ms": _metric(
            per_op_ms(spans.total_of("crypto.signatures:keygen")),
            "ms/op"),
        "crypto.signatures.signs": _metric(
            per_op(counts["crypto.signatures.signs"]), "count/op"),
        "crypto.signatures.verifies": _metric(
            per_op(counts["crypto.signatures.verifies"]), "count/op"),
        "crypto.signatures.op_share": _metric(
            spans.self_of("crypto.signatures") * 1e3 / wall_ms, "1"),
        "crypto.merkle.self_ms": _metric(
            per_op_ms(spans.self_of("crypto.merkle")), "ms/op"),
        "tee.launch_ms": _metric(per_op_ms(spans.total_of("tee:launch")),
                                 "ms/op"),
        "tee.quote_ms": _metric(per_op_ms(spans.total_of("tee:quote")),
                                "ms/op"),
        "tee.op_share": _metric(spans.self_of("tee") * 1e3 / wall_ms,
                                "1"),
        "fs.shield.self_ms": _metric(
            per_op_ms(spans.self_of("fs.shield")), "ms/op"),
        "fs.bytes_written": _metric(per_op(counts["fs.bytes_written"]),
                                    "B/op"),
        "tls.record_self_ms": _metric(
            per_op_ms(spans.self_of("tls:record_seal")
                      + spans.self_of("tls:record_open")), "ms/op"),
        "tls.record_bytes": _metric(per_op(counts["tls.records.bytes"]),
                                    "B/op"),
        "tls.handshake_ms": _metric(
            per_op_ms(spans.total_of("tls:handshake")), "ms/op"),
        "tls.handshakes": _metric(
            per_op(counts["tls:handshake.calls"]), "count/op"),
        "core.dispatch.self_ms": _metric(
            per_op_ms(spans.self_of("core.dispatch")), "ms/op"),
        "core.dispatch.requests": _metric(
            per_op(counts["core.dispatch.requests"]), "count/op"),
        "core.dispatch.errors": _metric(
            per_op(counts["core.dispatch.errors"]), "count/op"),
    }
    for route in ROUTES:
        durations = spans.durations_of(f"core.dispatch:handle:{route}")
        metrics[f"core.dispatch.{route}_p50_ms"] = _metric(
            statistics.median(durations) * 1e3 if durations else 0.0, "ms")
    store_bytes = counts["core.store.bytes_written"]
    metrics.update({
        "core.service.self_ms": _metric(
            per_op_ms(spans.self_of("core.service")), "ms/op"),
        "core.attestation.verify_ms": _metric(
            per_op_ms(spans.total_of("core.attestation:verify")), "ms/op"),
        "core.board.self_ms": _metric(
            per_op_ms(spans.self_of("core.board")), "ms/op"),
        "core.board.rounds": _metric(per_op(counts["core.board.rounds"]),
                                     "count/op"),
        "core.store.self_ms": _metric(
            per_op_ms(spans.self_of("core.store")), "ms/op"),
        "core.store.flush_ms": _metric(
            per_op_ms(spans.total_of("core.store:commit_instant")),
            "ms/op"),
        "core.store.flushes": _metric(per_op(counts["core.store.flushes"]),
                                      "count/op"),
        "core.store.bytes_written": _metric(per_op(store_bytes), "B/op"),
        "core.store.bytes_per_user_byte": _metric(
            store_bytes / traced_user_bytes if traced_user_bytes else 0.0,
            "B/B"),
        "sim.step_self_ms": _metric(per_op_ms(spans.self_of("sim")),
                                    "ms/op"),
        "sim.events": _metric(per_op(spans.calls_of("sim:step")),
                              "count/op"),
        "sim.messages": _metric(per_op(traced.messages), "count/op"),
        "sim.virtual_op_ms": _metric(
            statistics.median(record[2] for record in traced_records) * 1e3
            if traced_records else 0.0, "ms"),
        "obs.self_ms": _metric(per_op_ms(spans.self_of("obs")), "ms/op"),
        "obs.audit_records": _metric(per_op(traced.audit_records),
                                     "count/op"),
        "obs.histogram_samples": _metric(per_op(traced.histogram_samples),
                                         "count/op"),
        "obs.rss_growth_kb_per_kop": _metric(
            rss_growth_kb * 1000 / max(1, len(records)), "kB/kop"),
        "trace.overhead_frac": _metric(
            (untraced.ops / untraced.seconds) / (traced.ops / traced.seconds)
            - 1.0 if traced.ops and untraced.ops else 0.0, "1"),
        "trace.unattributed_frac": _metric(
            1.0 - spans.root_time * 1e3 / wall_ms, "1"),
    })
    return metrics


def _metric(value: float, unit: str) -> Metric:
    return {"value": value, "unit": unit}


def traced_counts(name: str, seed: int, ops: int,
                  size: str = "tiny") -> Dict[str, int]:
    """Deterministic work counts of exactly ``ops`` traced ops."""
    workload, _ = setup_workload(name, seed, size=size, repeats=1)
    tracer = build_tracer()
    messages = workload.network.messages_delivered
    tracer.install()
    try:
        workload.run_ops(ops)
    finally:
        tracer.uninstall()
    spans = tracer.reduce()
    counts = tracer.counts
    return {
        "bytes_sealed": counts["crypto.symmetric.sealed.bytes"],
        "bytes_opened": counts["crypto.symmetric.opened.bytes"],
        "db_bytes_written": counts["core.store.bytes_written"],
        "fs_bytes_written": counts["fs.bytes_written"],
        "flushes": counts["core.store.flushes"],
        "signs": counts["crypto.signatures.signs"],
        "verifies": counts["crypto.signatures.verifies"],
        "sim_events": spans.calls_of("sim:step"),
        "messages": workload.network.messages_delivered - messages,
        "failed": sum(1 for record in workload.records if not record[3]),
    }
