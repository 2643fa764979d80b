"""Ablation benches for the design choices DESIGN.md calls out.

These are not figures from the paper; they isolate *why* the paper's
design decisions win, by benchmarking the alternative each decision
rejected.
"""

from repro import calibration
from repro.benchlib.tables import format_table
from repro.core.board import AccessRequest, ApprovalService, BoardEvaluator
from repro.core.policy import BoardSpec, PolicyBoardMember
from repro.crypto.certificates import self_signed_certificate
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair
from repro.sim.core import Simulator
from repro.sim.network import Site
from repro.tee.counters import PlatformCounterService
from repro.tee.image import build_image
from repro.tee.loader import MeasurementScope

from benchmarks.conftest import load_into_roomy_epc, run_once


def _tag_updates_startup_only(updates):
    """PALAEMON's design: counter at startup/shutdown, tags to the DB."""
    sim = Simulator()
    counters = PlatformCounterService(sim)
    counters.create("c")

    def main():
        start = sim.now
        yield sim.process(counters.increment("c"))   # startup
        # Tag update = in-enclave DB write; modelled at the strict-mode
        # file-counter rate (the dominant cost is the AEAD + memcpy).
        # Charged as one batch: per-update costs are independent.
        yield sim.timeout(updates / calibration.FILE_COUNTER_PALAEMON_RATE)
        yield sim.process(counters.increment("c"))   # shutdown
        return updates / (sim.now - start)

    return sim.run_process(main()), counters.writes("c")


def _tag_updates_per_update_counter(updates):
    """The rejected design: one hardware increment per tag update."""
    sim = Simulator()
    counters = PlatformCounterService(sim)
    counters.create("c")

    def main():
        start = sim.now
        for _ in range(updates):
            yield sim.process(counters.increment("c"))
        return updates / (sim.now - start)

    return sim.run_process(main()), counters.writes("c")


def test_ablation_counter_protocol(benchmark):
    """Fig 6's startup-only protocol vs per-update hardware increments."""

    def experiment():
        # One instance lifetime serving a million tag updates (minutes of
        # service time) vs the same workload on per-update increments.
        fast_rate, fast_wear = _tag_updates_startup_only(updates=1_000_000)
        slow_rate, slow_wear = _tag_updates_per_update_counter(updates=50)
        return fast_rate, fast_wear, slow_rate, slow_wear

    fast_rate, fast_wear, slow_rate, slow_wear = run_once(benchmark,
                                                          experiment)
    print()
    print(format_table(
        ["design", "tag updates/s", "hardware writes"],
        [["startup-only counter (Fig 6)", fast_rate, fast_wear],
         ["per-update counter (rejected)", slow_rate, slow_wear]],
        title="Ablation: rollback-protection counter discipline"))

    # Throughput: >4 orders of magnitude apart.
    assert fast_rate / slow_rate > 1e4
    # Wear: 2 writes per lifecycle vs 1 per update. At 13 increments/s a
    # 1M-write counter dies in under a day of continuous tag updates.
    assert fast_wear == 2
    assert slow_wear == 50
    seconds_to_wear_out = calibration.SGX_COUNTER_WEAR_LIMIT / slow_rate
    assert seconds_to_wear_out < 2 * 24 * 3600


def test_ablation_measurement_scope(benchmark):
    """Measure-only-code vs measure-everything, isolated at 64 MB."""

    def experiment():
        image = build_image("ablation", heap_bytes=64 * calibration.MB)
        code_only = load_into_roomy_epc(image, MeasurementScope.CODE_ONLY)
        all_pages = load_into_roomy_epc(image, MeasurementScope.ALL_PAGES)
        return code_only, all_pages

    code_only, all_pages = run_once(benchmark, experiment)
    print()
    print(format_table(
        ["loader", "total (ms)", "measurement (ms)"],
        [["code-only (SCONE/PALAEMON)", code_only.total_seconds * 1e3,
          code_only.measurement_seconds * 1e3],
         ["all-pages (naive)", all_pages.total_seconds * 1e3,
          all_pages.measurement_seconds * 1e3]],
        title="Ablation: measurement scope at 64 MB"))

    # Identical non-measurement costs; the whole gap is EEXTEND volume.
    assert code_only.addition_seconds == all_pages.addition_seconds
    assert code_only.bookkeeping_seconds == all_pages.bookkeeping_seconds
    assert all_pages.total_seconds > 5 * code_only.total_seconds


def _board_round_latency(member_count):
    sim = Simulator()
    rng = DeterministicRandom(b"ablation-board")
    services = {}
    members = []
    for index in range(member_count):
        name = f"m{index}"
        keys = KeyPair.generate(rng.fork(name.encode()), bits=512)
        endpoint = f"ep-{name}"
        services[endpoint] = ApprovalService(sim, name, keys,
                                             site=Site.SAME_DC)
        members.append(PolicyBoardMember(
            name=name, certificate=self_signed_certificate(name, keys),
            approval_endpoint=endpoint))
    board = BoardSpec(members=tuple(members), threshold=member_count)
    evaluator = BoardEvaluator(sim, services)
    request = AccessRequest(policy_name="p", operation="update",
                            requester_fingerprint=b"\x01" * 16)

    def main():
        start = sim.now
        outcome = yield sim.process(evaluator.evaluate(board, request))
        BoardEvaluator.enforce(board, request, outcome)
        return sim.now - start

    return sim.run_process(main())


def test_ablation_board_size(benchmark):
    """Approval latency vs board size: parallel queries keep rounds flat."""

    def experiment():
        return {count: _board_round_latency(count)
                for count in (1, 3, 5, 9, 15)}

    latencies = run_once(benchmark, experiment)
    print()
    print(format_table(
        ["board members", "round latency (ms)"],
        [[count, latency * 1e3] for count, latency in latencies.items()],
        title="Ablation: board size vs unanimous-approval latency"))

    # A 15-member unanimous round costs at most ~2x a 1-member round:
    # member queries are parallel; only jitter accumulates in the max.
    assert latencies[15] < 2 * latencies[1]
