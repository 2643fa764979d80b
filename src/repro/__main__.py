"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``list``
    Print the experiment index: every paper table/figure and the benchmark
    that regenerates it.
``bench <id> [id ...]``
    Run the named experiments (e.g. ``fig10``, ``table2``, ``all``) through
    pytest-benchmark, printing the paper-style tables. ``tags`` and
    ``dispatch`` regenerate ``results/tag_throughput.json`` and
    ``results/dispatch_load.json``.
``examples``
    List the runnable example scripts.
``observe``
    Run a small instrumented workload and print the telemetry: the metrics
    snapshot (Prometheus-style), the trace summary, and the audit-chain
    verification result. ``--seed`` varies the run; the same seed prints
    identical output.
``lint``
    Static analysis (palint): AST-lint the source tree. ``--format=json``
    for machine output, ``--list-rules`` for the catalogue; exit 1 on
    findings. See ``docs/ANALYSIS.md``.
``chaos``
    Run the seeded fault-injection scenario and print the recovery
    summary. ``--seed`` picks the fault schedule's RNG seed. See
    ``docs/CHAOS.md``.
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


def cmd_chaos(seed: int) -> int:
    """Run the seeded chaos scenario."""
    from repro.chaos import render_summary, run_chaos

    print(render_summary(run_chaos(seed)))
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
        help="static analysis: source lint (palint)")
    chaos = subparsers.add_parser(
        "chaos", help="seeded fault injection + recovery summary")
    chaos.add_argument("--seed", type=int, default=7,
                       help="fault-schedule seed (same seed, same output)")
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
        return cmd_chaos(args.seed)
    return cmd_examples()


if __name__ == "__main__":
    raise SystemExit(main())
