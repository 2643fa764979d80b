"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``list``
    Print the experiment index: every paper table/figure and the benchmark
    that regenerates it.
``bench <id> [id ...]``
    Run the named experiments (e.g. ``fig10``, ``table2``, ``all``) through
    pytest-benchmark, printing the paper-style tables.
``examples``
    List the runnable example scripts.
``observe``
    Run a small instrumented workload and print the telemetry: the metrics
    snapshot (Prometheus-style), the trace summary, and the audit-chain
    verification result. ``--seed`` varies the run; the same seed prints
    identical output.
``lint``
    Static analysis (palint): AST-lint the source tree and optionally
    policy documents (``--policy FILE``). ``--format=json`` for machine
    output, ``--list-rules`` for the catalogue; exit 1 on unsuppressed
    findings. See ``docs/ANALYSIS.md``.
``chaos``
    Run the seeded fault-injection scenario and print the recovery
    summary. ``--seed`` picks the fault schedule's RNG seed,
    ``--no-retry`` reproduces the pre-retry deadlock, and ``--check``
    asserts the two driver-level invariants (same seed twice is
    byte-identical; retries disabled deadlocks). See ``docs/CHAOS.md``.
``bench-tags``
    Run the tag-update write-path benchmark (sequential updates plus
    concurrent group-commit batching) and export the deterministic results
    to ``results/tag_throughput.json``. ``--smoke`` runs a reduced
    configuration, asserts the batching invariant and that an update
    writes at most a tenth of the sealed database, and checks the export
    is byte-identical across reruns. See ``docs/PERFORMANCE.md``.
``bench-dispatch``
    Drive an N-client burst through the operation-dispatch pipeline's
    admission control and export the deterministic results
    (p50/p99 latency of admitted requests, shed counts by reason) to
    ``results/dispatch_load.json``. ``--smoke`` runs a reduced burst,
    asserts the shedding invariants (typed ``overloaded`` code, admitted
    requests succeed), and checks the export is byte-identical across
    reruns. See ``docs/API.md`` and ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

#: Experiment id -> (benchmark file, description).
EXPERIMENTS = {
    "table1": ("test_table1_secret_channels.py",
               "How popular services obtain secrets"),
    "table2": ("test_table2_page_throughput.py",
               "Enclave page-operation throughput"),
    "fig7": ("test_fig7_startup_times.py",
             "Startup time vs enclave size"),
    "fig8": ("test_fig8_attestation_latency.py",
             "Attestation/configuration latencies"),
    "fig9": ("test_fig9_startup_scaling.py",
             "Startup throughput by attestation variant"),
    "fig10": ("test_fig10_monotonic_counters.py",
              "Monotonic counter throughput"),
    "fig11": ("test_fig11_tag_and_injection.py",
              "Tag latency + secret-injection overhead"),
    "fig12": ("test_fig12_secret_access.py",
              "Remote secret retrieval latency"),
    "fig13": ("test_fig13_approval_service.py",
              "Approval service throughput + geography"),
    "fig14": ("test_fig14_barbican.py", "Barbican under two microcodes"),
    "fig15": ("test_fig15_vault.py", "Vault (EPC paging)"),
    "fig16": ("test_fig16_memcached.py", "memcached"),
    "fig17a": ("test_fig17a_nginx.py", "NGINX five variants"),
    "fig17bc": ("test_fig17bc_zookeeper.py", "ZooKeeper reads/writes"),
    "fig17d": ("test_fig17d_mariadb.py", "MariaDB buffer-pool sweep"),
    "sec6": ("test_sec6_production_ml.py", "Production ML use case"),
    "ablations": ("test_ablations.py", "Design-choice ablations"),
    "ext-attestation": ("test_ext_attestation_paths.py",
                        "IAS vs local vs DCAP verification"),
    "ext-objectstore": ("test_ext_objectstore.py",
                        "Replicated storage backend durability"),
    "tags": ("test_tag_throughput.py",
             "Tag-update write-path throughput (segments + group commit)"),
    "dispatch": ("test_dispatch_load.py",
                 "Dispatch-pipeline admission control under burst load"),
}


def _repo_root() -> Path:
    return Path(__file__).resolve().parent.parent.parent


def cmd_list() -> int:
    width = max(len(key) for key in EXPERIMENTS)
    print("experiment  ->  benchmark (description)")
    for key, (filename, description) in EXPERIMENTS.items():
        print(f"  {key.ljust(width)}  benchmarks/{filename}  ({description})")
    return 0


def cmd_bench(ids: list) -> int:
    if "all" in ids:
        targets = ["benchmarks/"]
    else:
        unknown = [i for i in ids if i not in EXPERIMENTS]
        if unknown:
            print(f"unknown experiment ids: {', '.join(unknown)}",
                  file=sys.stderr)
            print("run `python -m repro list` for the index",
                  file=sys.stderr)
            return 2
        targets = [f"benchmarks/{EXPERIMENTS[i][0]}" for i in ids]
    command = [sys.executable, "-m", "pytest", *targets,
               "--benchmark-only", "-q", "-s"]
    return subprocess.call(command, cwd=_repo_root())


def cmd_observe(seed: str = "observe") -> int:
    """Run the telemetry demo workload and print the report."""
    from repro.obs.demo import print_observe_report, run_observe_workload

    if not seed:
        print("observe: --seed must be non-empty", file=sys.stderr)
        return 2
    service = run_observe_workload(seed.encode())
    return 0 if print_observe_report(service) else 1


def cmd_chaos(seed: int, check: bool, no_retry: bool) -> int:
    """Run (or verify) the seeded chaos scenario."""
    from repro.chaos import render_summary, run_chaos
    from repro.errors import SimulationError

    if no_retry:
        try:
            run_chaos(seed, retries=False)
        except SimulationError as exc:
            print(f"chaos (retries disabled): {exc}")
            print("the scenario hangs without the retry layer, as expected")
            return 0
        print("chaos (retries disabled): unexpectedly completed",
              file=sys.stderr)
        return 1
    if check:
        first = render_summary(run_chaos(seed))
        second = render_summary(run_chaos(seed))
        if first != second:
            print("chaos --check: two same-seed runs differ", file=sys.stderr)
            return 1
        try:
            run_chaos(seed, retries=False)
        except SimulationError:
            pass
        else:
            print("chaos --check: the no-retry run should deadlock "
                  "but completed", file=sys.stderr)
            return 1
        print(first)
        print(f"chaos --check: seed {seed} deterministic; "
              f"no-retry run deadlocks as expected")
        return 0
    print(render_summary(run_chaos(seed)))
    return 0


def cmd_bench_tags(smoke: bool, out: str) -> int:
    """Run the tag-update throughput benchmark; export deterministic JSON."""
    import json
    import tempfile

    from repro.benchlib import tagbench

    if smoke:
        config = dict(policies=150, sequential_updates=6, workers=6)
    else:
        config = dict(policies=tagbench.DEFAULT_POLICIES,
                      sequential_updates=12, workers=8)
    document, wall_clock = tagbench.run_benchmark(**config)
    try:
        tagbench.check_invariants(document)
    except AssertionError as exc:
        print(f"bench-tags: invariant violated: {exc}", file=sys.stderr)
        return 1
    if smoke:
        # Determinism: a rerun of the same configuration must export
        # byte-identical JSON (wall-clock numbers are never exported).
        rerun, _ = tagbench.run_benchmark(**config)
        with tempfile.TemporaryDirectory() as scratch:
            first = Path(scratch) / "first.json"
            second = Path(scratch) / "second.json"
            tagbench.export_results(str(first), document)
            tagbench.export_results(str(second), rerun)
            if first.read_bytes() != second.read_bytes():
                print("bench-tags --smoke: rerun export differs",
                      file=sys.stderr)
                return 1
    else:
        path = Path(out)
        if not path.is_absolute():
            path = _repo_root() / path
        tagbench.export_results(str(path), document)
        print(f"wrote {path}")
    sequential = document["sequential"]
    concurrent = document["concurrent"]
    print(json.dumps(document, indent=2, sort_keys=True))
    per_update = sequential["bytes_written_per_update"]
    print(f"bytes/update: {per_update} of a "
          f"{sequential['database_bytes']}-byte sealed database "
          f"({sequential['database_bytes'] / per_update:.1f}x)")
    print(f"group commit: {concurrent['workers']} workers -> "
          f"{concurrent['disk_commits']} disk commit(s), "
          f"{concurrent['coalesced_commits']} coalesced")
    print(f"wall clock (host-dependent, not exported): "
          f"{wall_clock['updates_per_second']:.0f} updates/s")
    return 0


def cmd_bench_dispatch(smoke: bool, out: str) -> int:
    """Run the dispatch admission-control burst; export deterministic JSON."""
    import json
    import tempfile

    from repro.benchlib import dispatchbench

    if smoke:
        config = dict(clients=16, requests_per_client=2, policies=60,
                      max_concurrency=3, max_queue=4, queue_deadline=0.5)
    else:
        config = dict(dispatchbench.DEFAULT_CONFIG)
    document = dispatchbench.run_benchmark(**config)
    try:
        dispatchbench.check_invariants(document)
    except AssertionError as exc:
        print(f"bench-dispatch: invariant violated: {exc}", file=sys.stderr)
        return 1
    if smoke:
        # Determinism: a rerun of the same configuration must export
        # byte-identical JSON (only simulated time is measured).
        rerun = dispatchbench.run_benchmark(**config)
        with tempfile.TemporaryDirectory() as scratch:
            first = Path(scratch) / "first.json"
            second = Path(scratch) / "second.json"
            dispatchbench.export_results(str(first), document)
            dispatchbench.export_results(str(second), rerun)
            if first.read_bytes() != second.read_bytes():
                print("bench-dispatch --smoke: rerun export differs",
                      file=sys.stderr)
                return 1
    else:
        path = Path(out)
        if not path.is_absolute():
            path = _repo_root() / path
        dispatchbench.export_results(str(path), document)
        print(f"wrote {path}")
    print(json.dumps(document, indent=2, sort_keys=True))
    admitted = document["admitted"]
    shed = document["shed"]
    print(f"burst: {document['requests_total']} requests -> "
          f"{admitted['count']} admitted (p50 "
          f"{admitted['latency']['p50'] * 1e3:.1f}ms, p99 "
          f"{admitted['latency']['p99'] * 1e3:.1f}ms), "
          f"{shed['count']} shed with code "
          f"{'/'.join(shed['codes'])}")
    return 0


def cmd_examples() -> int:
    examples_dir = _repo_root() / "examples"
    for script in sorted(examples_dir.glob("*.py")):
        first_doc_line = ""
        for line in script.read_text().splitlines():
            if line.startswith('"""'):
                first_doc_line = line.strip('"').strip()
                break
        print(f"  python examples/{script.name}  # {first_doc_line}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PALAEMON reproduction: experiment runner")
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="print the experiment index")
    bench = subparsers.add_parser("bench", help="run experiments")
    bench.add_argument("ids", nargs="+",
                       help="experiment ids (see `list`) or `all`")
    subparsers.add_parser("examples", help="list runnable examples")
    observe = subparsers.add_parser(
        "observe", help="run a workload, print telemetry + audit verdict")
    observe.add_argument("--seed", default="observe",
                         help="workload seed (same seed, same output)")
    subparsers.add_parser(
        "lint", add_help=False,
        help="static analysis: policy + source lint (palint)")
    chaos = subparsers.add_parser(
        "chaos", help="seeded fault injection + recovery summary")
    chaos.add_argument("--seed", type=int, default=7,
                       help="fault-schedule seed (same seed, same output)")
    chaos.add_argument("--check", action="store_true",
                       help="assert determinism and the no-retry deadlock")
    chaos.add_argument("--no-retry", action="store_true",
                       help="run without the retry layer (demonstrates "
                            "the deadlock the retry layer fixes)")
    bench_tags = subparsers.add_parser(
        "bench-tags", help="tag-update write-path throughput benchmark")
    bench_tags.add_argument("--smoke", action="store_true",
                            help="reduced run: assert batching + bytes "
                                 "invariants and export determinism")
    bench_tags.add_argument("--out", default="results/tag_throughput.json",
                            help="export path (full runs only)")
    bench_dispatch = subparsers.add_parser(
        "bench-dispatch",
        help="dispatch-pipeline admission-control burst benchmark")
    bench_dispatch.add_argument(
        "--smoke", action="store_true",
        help="reduced burst: assert shedding invariants and export "
             "determinism")
    bench_dispatch.add_argument(
        "--out", default="results/dispatch_load.json",
        help="export path (full runs only)")
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # The lint CLI owns its own argument surface (src/repro/analysis).
        from repro.analysis.cli import run_lint

        return run_lint(argv[1:])
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "bench":
        return cmd_bench(args.ids)
    if args.command == "observe":
        return cmd_observe(args.seed)
    if args.command == "chaos":
        return cmd_chaos(args.seed, args.check, args.no_retry)
    if args.command == "bench-tags":
        return cmd_bench_tags(args.smoke, args.out)
    if args.command == "bench-dispatch":
        return cmd_bench_dispatch(args.smoke, args.out)
    return cmd_examples()


if __name__ == "__main__":
    raise SystemExit(main())
