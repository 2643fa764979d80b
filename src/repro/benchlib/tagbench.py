"""Tag-update throughput benchmark (the Fig 10/11 hot path, end to end).

Measures the cost of ``PalaemonService.update_tag`` — the paper's most
frequent write — against a database of many policies, in two ways:

- **sequential**: each update reseals only the dirty tables plus the
  manifest, which must stay a small fraction of the sealed database
  already on the volume;
- **concurrent**: N simultaneous updaters exercising the group-commit
  batching in :meth:`PolicyStore.commit`.

Two kinds of numbers come out. *Deterministic* facts — simulated elapsed
time, bytes written to the untrusted store, disk-commit and coalescing
counts — are identical across runs with the same configuration and are
what gets exported to ``results/tag_throughput.json``. *Wall-clock*
serialization timings vary by host and are reported separately for
display, never exported.

Used by ``python -m repro bench-tags`` and
``benchmarks/test_tag_throughput.py``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Generator, Tuple

from repro.benchlib.export import export_experiment
from repro.core.service import PalaemonService, _ServiceState
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.fs.blockstore import BlockStore
from repro.obs.telemetry import Telemetry
from repro.sim.core import Event, Simulator
from repro.tee.platform import SGXPlatform

#: The per-policy payload stored in the policies table: sized so a
#: 1,000-policy database pickles to ~2 MB, matching a small production
#: estate (List 1 policies carry injection-file templates of this order).
DEFAULT_PAYLOAD_BYTES = 2048
DEFAULT_POLICIES = 1000

#: Every blob of the sealed database (manifest and segments) lives under
#: this path on the volume; the sealed identity does not.
_DATABASE_PATH_PREFIX = "/palaemon.db"


def build_service(name: str, seed: bytes, policies: int,
                  payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
                  ) -> Tuple[Simulator, PalaemonService]:
    """A minimal started PALAEMON instance seeded with ``policies`` entries.

    The database is bulk-seeded directly through the store (one commit at
    the end) so setup cost does not depend on the flush strategy under
    test; per-policy payloads and service states are deterministic
    functions of the seed.
    """
    rng = DeterministicRandom(seed)
    simulator = Simulator()
    platform = SGXPlatform(simulator, f"{name}-node", rng.fork(b"platform"))
    service = PalaemonService(platform, BlockStore(f"{name}-volume"),
                              rng.fork(b"service"), name=name,
                              telemetry=Telemetry.for_simulator(simulator))
    simulator.run_process(service.start(), name=f"{name}-start")
    payload_rng = rng.fork(b"payloads")
    for index in range(policies):
        policy_name = _policy_name(index)
        service.store.put("policies", policy_name, {
            "name": policy_name,
            "services": ["svc"],
            "injection_template": payload_rng.bytes(payload_bytes),
        })
        service.store.put("state", policy_name, {"svc": _ServiceState()})
    service.store.commit_instant()
    return simulator, service


def _policy_name(index: int) -> str:
    return f"bench-{index:04d}"


def measure_sequential(policies: int, updates: int,
                       payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
                       ) -> Tuple[Dict[str, Any], float]:
    """Sequential tag updates; returns (deterministic facts, wall seconds).

    ``database_bytes`` is the sealed database left on the volume (segment
    blobs plus manifest): the size a whole-document flush would rewrite.
    """
    simulator, service = build_service(
        "tagbench-segmented", b"tagbench:segmented", policies,
        payload_bytes=payload_bytes)
    backing = service.store.store
    bytes_before = backing.bytes_written
    commits_before = service.store.disk.commits
    sim_before = simulator.now
    wall_before = time.perf_counter()
    for index in range(updates):
        target = _policy_name((index * 37) % policies)
        tag = sha256(b"tag:%d" % index)
        simulator.run_process(
            service.update_tag(target, "svc", tag),
            name=f"update-{index}")
    wall_seconds = time.perf_counter() - wall_before
    return {
        "policies": policies,
        "updates": updates,
        "sim_seconds_per_update":
            (simulator.now - sim_before) / updates,
        "bytes_written_per_update":
            (backing.bytes_written - bytes_before) // updates,
        "database_bytes": sum(
            len(backing.read(path)) for path in backing.list()
            if path.startswith(_DATABASE_PATH_PREFIX)),
        "disk_commits": service.store.disk.commits - commits_before,
    }, wall_seconds


def measure_concurrent(policies: int, workers: int,
                       payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
                       ) -> Dict[str, Any]:
    """``workers`` simultaneous tag updates through the group commit."""
    simulator, service = build_service(
        "tagbench-concurrent", b"tagbench:concurrent", policies,
        payload_bytes=payload_bytes)
    commits_before = service.store.disk.commits
    sim_before = simulator.now

    def drive() -> Generator[Event, Any, float]:
        processes = [
            simulator.process(service.update_tag(
                _policy_name(index), "svc", sha256(b"concurrent:%d" % index)))
            for index in range(workers)]
        for process in processes:
            yield process
        return simulator.now

    finished = simulator.run_process(drive(), name="concurrent-updates")
    disk_commits = service.store.disk.commits - commits_before
    coalesced = service.telemetry.metrics.counter(
        "palaemon_db_commits_coalesced_total").value
    return {
        "policies": policies,
        "workers": workers,
        "sim_seconds_total": finished - sim_before,
        "disk_commits": disk_commits,
        "coalesced_commits": int(coalesced),
        "expected_tags_recorded": sum(
            1 for index in range(workers)
            if service.get_tag_instant(_policy_name(index), "svc")
            is not None),
    }


def run_benchmark(policies: int = DEFAULT_POLICIES,
                  sequential_updates: int = 12,
                  workers: int = 8,
                  payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
                  ) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """Run both phases.

    Returns ``(document, wall_clock)``: the document holds only
    deterministic facts (stable across reruns, suitable for committing),
    ``wall_clock`` the host-dependent serialization timings.
    """
    sequential, wall_seconds = measure_sequential(
        policies, sequential_updates, payload_bytes=payload_bytes)
    concurrent = measure_concurrent(policies, workers,
                                    payload_bytes=payload_bytes)
    document = {
        "config": {
            "policies": policies,
            "payload_bytes": payload_bytes,
            "sequential_updates": sequential_updates,
            "concurrent_workers": workers,
        },
        "sequential": sequential,
        "concurrent": concurrent,
    }
    wall_clock = {
        "updates_per_second":
            sequential_updates / wall_seconds if wall_seconds else 0.0,
    }
    return document, wall_clock


def export_results(path: str, document: Dict[str, Any]) -> None:
    """Write the deterministic document via the benchlib export format."""
    export_experiment(path, experiment_id="tag_throughput",
                      extra=document)


def check_invariants(document: Dict[str, Any]) -> None:
    """The batching + throughput invariants ``bench-tags --smoke`` enforces.

    - concurrent updaters must coalesce: fewer disk commits than workers,
      at least one coalesced commit, and every worker's tag recorded;
    - a sequential update must write at most a tenth of the sealed
      database already on the volume;
    - the latency model is untouched: a sequential update still pays
      exactly one disk commit.
    """
    concurrent = document["concurrent"]
    if concurrent["coalesced_commits"] < 1:
        raise AssertionError("no coalesced commits under concurrent load")
    if concurrent["disk_commits"] >= concurrent["workers"]:
        raise AssertionError(
            f"{concurrent['workers']} workers required "
            f"{concurrent['disk_commits']} disk commits — no batching")
    if concurrent["expected_tags_recorded"] != concurrent["workers"]:
        raise AssertionError("a coalesced update lost its tag")
    sequential = document["sequential"]
    if (10 * sequential["bytes_written_per_update"]
            > sequential["database_bytes"]):
        raise AssertionError(
            f"a sequential update wrote "
            f"{sequential['bytes_written_per_update']} bytes, more than a "
            f"tenth of the {sequential['database_bytes']}-byte sealed "
            f"database")
    if sequential["disk_commits"] != sequential["updates"]:
        raise AssertionError("sequential updates must pay one commit each")
