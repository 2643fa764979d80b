"""Tag-update write-path throughput: segments + group commit.

Not a paper figure — a repo-trajectory benchmark guarding the tag-update
hot path. The latency *model* is pinned by Fig 11 (a sequential update
still pays exactly one 22.5 ms disk commit); what this benchmark measures
is the modeled *work per commit*:

- **bytes written per update** on a 1,000-policy database: the segmented
  store reseals only the dirty tables plus the manifest, so an update
  must write at most a tenth of the sealed database on the volume (it
  measures ~55x less, the same factor the former whole-document flush
  lost by);
- **group-commit batching**: N concurrent ``update_tag`` callers coalesce
  into one ``DiskModel.commit``, finishing together in a single commit
  window, and leave the same durable state serial commits would.
"""

import pytest

from repro import calibration
from repro.benchlib import tagbench
from repro.benchlib.tables import format_table

from benchmarks.conftest import run_once

POLICIES = 1000


def test_sequential_bytes_ratio(benchmark):
    """An update writes at most a tenth of the sealed database."""
    sequential, wall_seconds = run_once(
        benchmark, lambda: tagbench.measure_sequential(POLICIES, updates=6))
    ratio = (sequential["database_bytes"]
             / sequential["bytes_written_per_update"])
    print()
    print(format_table(
        ["bytes/update", "sealed database bytes", "sim s/update",
         "disk commits"],
        [[sequential["bytes_written_per_update"],
          sequential["database_bytes"],
          f"{sequential['sim_seconds_per_update']:.4f}",
          sequential["disk_commits"]]]))
    print(f"database/update: {ratio:.1f}x; wall clock: "
          f"{sequential['updates'] / wall_seconds:.0f} updates/s")
    assert ratio >= 10.0
    # The latency model is untouched: one disk commit per sequential
    # update, each paying the calibrated commit window.
    assert sequential["disk_commits"] == sequential["updates"]
    assert sequential["sim_seconds_per_update"] == pytest.approx(
        calibration.TAG_UPDATE_LATENCY_SECONDS
        - calibration.TAG_READ_LATENCY_SECONDS)


def test_concurrent_updates_coalesce(benchmark):
    """Concurrent updaters share one disk commit (group commit)."""
    result = run_once(
        benchmark, lambda: tagbench.measure_concurrent(POLICIES, workers=8))
    print()
    print(f"{result['workers']} workers -> {result['disk_commits']} disk "
          f"commit(s), {result['coalesced_commits']} coalesced, "
          f"{result['sim_seconds_total']:.4f} sim s total")
    assert result["coalesced_commits"] >= 1
    assert result["disk_commits"] < result["workers"]
    assert result["expected_tags_recorded"] == result["workers"]


def test_coalesced_state_matches_serial(benchmark):
    """Group-committed updates leave the same durable state as serial ones."""
    from repro.crypto.primitives import sha256

    def measure():
        # Concurrent: 6 workers race through the group commit.
        sim_c, service_c = tagbench.build_service(
            "equiv-concurrent", b"tagbench:equiv", 40)

        def drive():
            processes = [
                sim_c.process(service_c.update_tag(
                    f"bench-{i:04d}", "svc", sha256(b"equiv:%d" % i)))
                for i in range(6)]
            for process in processes:
                yield process

        sim_c.run_process(drive())
        # Serial: the same updates, one committed after another.
        sim_s, service_s = tagbench.build_service(
            "equiv-serial", b"tagbench:equiv", 40)
        for i in range(6):
            sim_s.run_process(service_s.update_tag(
                f"bench-{i:04d}", "svc", sha256(b"equiv:%d" % i)))
        return service_c, service_s

    service_c, service_s = run_once(benchmark, measure)
    tags_c = {name: service_c.get_tag_instant(name, "svc")
              for name in (f"bench-{i:04d}" for i in range(40))}
    tags_s = {name: service_s.get_tag_instant(name, "svc")
              for name in (f"bench-{i:04d}" for i in range(40))}
    assert tags_c == tags_s
    assert service_c.store.disk.commits < service_s.store.disk.commits
