"""Tag-update write-path throughput: the store's log + group commit.

Not a paper figure — a repo-trajectory benchmark guarding the tag-update
hot path. The latency *model* is pinned by Fig 11 (a sequential update
still pays exactly one 22.5 ms disk commit); what this benchmark measures
is the modeled *work per commit*:

- **bytes written per update**: the log-structured store appends one
  sealed record of the changed key plus the manifest, so an update must
  write at most a tenth of the sealed database on the volume (it measures
  thousands of times less), and under 1 KiB whatever the number of
  policies — compaction included, amortized over 200 updates;
- **group-commit batching**: N concurrent ``update_tag`` callers coalesce
  into one hold of the database disk, finishing together in a single commit
  window, and leave the same durable state serial commits would.

The default configuration's document is exported to
``results/tag_throughput.json``; ``python -m repro bench tags``
regenerates it.
"""

import pytest

from repro import calibration
from repro.benchlib import tagbench
from repro.benchlib.export import export_experiment
from repro.benchlib.tables import format_table

from benchmarks.conftest import run_once


def test_default_configuration(benchmark):
    """Bytes per update, group commit, determinism; exports the results."""
    document = run_once(benchmark, tagbench.run_benchmark)
    sequential = document["sequential"]
    concurrent = document["concurrent"]
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
    print(f"database/update: {ratio:.1f}x; {concurrent['workers']} workers "
          f"-> {concurrent['disk_commits']} disk commit(s), "
          f"{concurrent['coalesced_commits']} coalesced")

    # An update writes at most a tenth of the sealed database, and under
    # 1 KiB.
    assert ratio >= 10.0
    assert sequential["bytes_written_per_update"] < 1024
    # The latency model is untouched: one disk commit per sequential
    # update, each paying the calibrated commit window.
    assert sequential["disk_commits"] == sequential["updates"]
    assert sequential["sim_seconds_per_update"] == pytest.approx(
        calibration.TAG_UPDATE_LATENCY_SECONDS
        - calibration.TAG_READ_LATENCY_SECONDS)
    # Concurrent updaters share disk commits and every tag lands.
    assert concurrent["coalesced_commits"] >= 1
    assert concurrent["disk_commits"] < concurrent["workers"]
    assert concurrent["expected_tags_recorded"] == concurrent["workers"]
    # Only simulated time and counters are measured: a rerun is identical.
    assert tagbench.run_benchmark() == document

    export_experiment("results/tag_throughput.json", "tag_throughput",
                      extra=document)


def test_bytes_per_update_do_not_grow_with_policies(benchmark):
    """An update writes the same small record at 100 and 4,000 policies."""

    def measure():
        return {policies: tagbench.measure_sequential(policies, 200)
                for policies in (100, 4000)}

    documents = run_once(benchmark, measure)
    written = {policies: document["bytes_written_per_update"]
               for policies, document in documents.items()}
    print()
    print(format_table(["policies", "bytes/update"],
                       [[policies, value]
                        for policies, value in written.items()]))
    for document in documents.values():
        assert document["bytes_written_per_update"] < 1024
        assert document["disk_commits"] == 200
    assert written[4000] <= 1.5 * written[100]


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
    commits_c, commits_s = (
        service.telemetry.metrics.counter("palaemon_db_commits_total").value
        for service in (service_c, service_s))
    assert commits_c < commits_s
