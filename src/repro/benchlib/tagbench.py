"""Tag-update throughput benchmark (the Fig 10/11 hot path, end to end).

Measures the cost of ``PalaemonService.update_tag`` — the paper's most
frequent write — against a database of many policies, in two ways:

- **sequential**: each update appends one sealed log record of the changed
  key plus the manifest (and now and then a compaction reseals the state
  table), so it writes a small, constant number of bytes however many
  policies the sealed database on the volume holds;
- **concurrent**: N simultaneous updaters exercising the group-commit
  batching in :meth:`PolicyStore.commit`.

Every number is deterministic — simulated elapsed time, bytes written to
the untrusted store, disk-commit and coalescing counts — so runs with the
same configuration give identical documents. Host time is measured by
``perfbench/``, not here.

Used by ``benchmarks/test_tag_throughput.py``, which exports
``results/tag_throughput.json`` (``python -m repro bench tags``).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Tuple

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
#: Updates of the sequential phase and updaters of the concurrent one.
_SEQUENTIAL_UPDATES = 12
_WORKERS = 8

#: Every blob of the sealed database (manifest, snapshots and log records)
#: lives under this path on the volume; the sealed identity does not.
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


def measure_sequential(policies: int, updates: int) -> Dict[str, Any]:
    """Sequential tag updates through the timed write path.

    ``database_bytes`` is the sealed database left on the volume
    (snapshots, log records and manifest): the size a whole-document
    flush would rewrite.
    """
    simulator, service = build_service(
        "tagbench-segmented", b"tagbench:segmented", policies)
    backing = service.store.store
    bytes_before = backing.bytes_written
    commits = service.telemetry.metrics.counter("palaemon_db_commits_total")
    commits_before = commits.value
    sim_before = simulator.now
    for index in range(updates):
        target = _policy_name((index * 37) % policies)
        tag = sha256(b"tag:%d" % index)
        simulator.run_process(
            service.update_tag(target, "svc", tag),
            name=f"update-{index}")
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
        "disk_commits": int(commits.value - commits_before),
    }


def measure_concurrent(policies: int, workers: int) -> Dict[str, Any]:
    """``workers`` simultaneous tag updates through the group commit."""
    simulator, service = build_service(
        "tagbench-concurrent", b"tagbench:concurrent", policies)
    commits = service.telemetry.metrics.counter("palaemon_db_commits_total")
    commits_before = commits.value
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
    coalesced = service.telemetry.metrics.counter(
        "palaemon_db_commits_coalesced_total").value
    return {
        "policies": policies,
        "workers": workers,
        "sim_seconds_total": finished - sim_before,
        "disk_commits": int(commits.value - commits_before),
        "coalesced_commits": int(coalesced),
        "expected_tags_recorded": sum(
            1 for index in range(workers)
            if service.get_tag_instant(_policy_name(index), "svc")
            is not None),
    }


def run_benchmark() -> Dict[str, Any]:
    """Run both phases; return the deterministic result document."""
    return {
        "config": {
            "policies": DEFAULT_POLICIES,
            "payload_bytes": DEFAULT_PAYLOAD_BYTES,
            "sequential_updates": _SEQUENTIAL_UPDATES,
            "concurrent_workers": _WORKERS,
        },
        "sequential": measure_sequential(DEFAULT_POLICIES,
                                         _SEQUENTIAL_UPDATES),
        "concurrent": measure_concurrent(DEFAULT_POLICIES, _WORKERS),
    }
