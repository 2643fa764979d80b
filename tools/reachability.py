#!/usr/bin/env python3
"""Which functions of ``src/repro`` only the tests run.

Runs every entry point that is not a unit test under ``sys.setprofile``:
the paper-figure benchmarks (``pytest benchmarks --benchmark-disable``),
every example, the ``observe``, ``chaos``, ``lint``, ``list`` and
``examples`` commands, and a short run of each perfbench workload. Each
run is a child process of this script. A function none of them calls is
unreached. Run from the root of a checkout:

    python3 tools/reachability.py

It prints the number of functions under ``src/repro``, the number that
no run reached with their body lines, how many of those :data:`KEEP`
explains and how many it does not, and the unreached list with each
function's reason. Body lines count from the line after ``def`` to the
end of the function; a function nested in an unreached one adds no lines
of its own. It exits 1 when an unreached function has no reason: such a
function either gains a caller on a measured path or leaves ``src/``.

``--benchmark-disable`` matters: pytest-benchmark suspends profilers
while it times a benchmark, so without it the modules the figures run
look unreached.

A run that fails stops the probe, so a broken entry point cannot pass
for unreached code; ``repro lint`` may exit 1, which only reports
findings.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
WORKLOADS = ("startup", "tag-churn", "governance")
#: Seconds each perfbench workload runs.
PERFBENCH_SECONDS = 3.0

#: The reasons an unreached function may stay in ``src/``, besides
#: :func:`reserved`.
PERFBENCH = "perfbench wraps it by name"
ORACLE = "test oracle"
UNCLEAN = ("error builder, security refusal or document generator "
           "that a clean run never triggers")
REASONS = (PERFBENCH, ORACLE, UNCLEAN)


def reserved(item: int) -> str:
    """The reason of a function that an open ROADMAP item will use."""
    return f"open ROADMAP item {item} reserves it"


#: Why each function no run reaches stays, keyed ``file:qualified name``
#: relative to ``src/repro``. perfbench's ``HostTracer.install`` reads the
#: functions it wraps out of ``owner.__dict__``, so they must exist even
#: when no workload calls them.
KEEP = {
    "crypto/merkle.py:MerkleTree.set_leaf": PERFBENCH,
    "crypto/merkle.py:MerkleTree.remove_leaf": PERFBENCH,
    "crypto/merkle.py:MerkleTree.prove": PERFBENCH,
    "crypto/merkle.py:MerkleProof.__init__": PERFBENCH,
    "crypto/merkle.py:MerkleProof.verify": PERFBENCH,
    "fs/shield.py:ProtectedFileSystem.close_file": PERFBENCH,
    "core/dispatch.py:_tag_get_process": reserved(2),
    "tee/ias.py:IntelAttestationService.verify_quote": reserved(2),
    "core/rest.py:PalaemonRestClient.close": reserved(3),
    "sim/faults.py:FaultPlan.fail_store": reserved(5),
    "sim/faults.py:FaultPlan.delay_link": reserved(10),
    "sim/network.py:Endpoint.reopen": reserved(10),
    "core/yamlish.py:dumps": ORACLE,
    "core/yamlish.py:_dump_block": ORACLE,
    "core/yamlish.py:_dump_key": ORACLE,
    "core/yamlish.py:_dump_scalar": ORACLE,
    "crypto/merkle.py:MerkleTree.snapshot": ORACLE,
    "crypto/merkle.py:MerkleTree.from_snapshot": ORACLE,
    "__main__.py:cmd_bench": UNCLEAN,
    "analysis/findings.py:Finding.location": UNCLEAN,
    "analysis/findings.py:Finding.sort_key": UNCLEAN,
    "analysis/findings.py:Finding.to_dict": UNCLEAN,
    "analysis/report.py:render_json": UNCLEAN,
    "analysis/source_rules.py:_names_datetime": UNCLEAN,
    "analysis/source_rules.py:_wall_clock_finding": UNCLEAN,
    "analysis/source_rules.py:_package_of": UNCLEAN,
    "core/attestation.py:PlatformRegistry.revoke": UNCLEAN,
    "core/dispatch.py:OperationRegistry.operations": UNCLEAN,
    "core/dispatch.py:Dispatcher._crash_reply": UNCLEAN,
    "core/dispatch.py:render_operation_table": UNCLEAN,
    "errors.py:MerkleLeafNotFoundError.__str__": UNCLEAN,
    "fs/shield.py:ProtectedFileSystem._evict": UNCLEAN,
    "tee/ias.py:IntelAttestationService.revoke_platform": UNCLEAN,
    "tee/platform.py:SGXPlatform.set_microcode": UNCLEAN,
    "tls/channel.py:TLSConnection._closed_error": UNCLEAN,
    "tls/channel.py:TLSConnection._hand_off": UNCLEAN,
}


def runs() -> List[Tuple[str, str, List[str]]]:
    """Every probed run as (kind, target, argv): ``module`` runs
    ``python -m target``, ``script`` runs a file."""
    plan = [("module", "pytest", ["benchmarks", "--benchmark-disable",
                                  "-q", "-p", "no:cacheprovider"])]
    plan += [("script", str(path), [])
             for path in sorted((ROOT / "examples").glob("*.py"))]
    plan += [("module", "repro", [command])
             for command in ("observe", "chaos", "lint", "list", "examples")]
    plan += [("script", str(ROOT / "perfbench" / "run.py"),
              ["--workload", workload, "--seed", "1",
               "--seconds", str(PERFBENCH_SECONDS)])
             for workload in WORKLOADS]
    return plan


def child(kind: str, target: str, argv: List[str], out: Path) -> None:
    """Run one entry point under the profiler and write the
    ``(file, first line)`` of every ``src/repro`` code object it called."""
    called: Set = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    sys.argv = [target] + argv
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if kind == "module":
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (0, None) and not (
                argv == ["lint"] and exc.code == 1):
            raise
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = str(SOURCE) + os.sep
    hits = sorted({(code.co_filename[len(prefix):], code.co_firstlineno)
                   for code in called
                   if code.co_filename.startswith(prefix)})
    out.write_text(json.dumps(hits))


def functions() -> List[dict]:
    """Every function and method under ``src/repro``, with the line its
    code object starts on (the first decorator, if any)."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        relative = path.relative_to(SOURCE).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, scope, outer):
            for item in ast.iter_child_nodes(node):
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    start = min([item.lineno] + [decorator.lineno for
                                                 decorator in
                                                 item.decorator_list])
                    entry = {"file": relative, "line": start,
                             "name": ".".join(scope + [item.name]),
                             "body_lines": item.end_lineno - item.lineno,
                             "outer": outer}
                    found.append(entry)
                    visit(item, scope + [item.name], entry)
                elif isinstance(item, ast.ClassDef):
                    visit(item, scope + [item.name], outer)
                else:
                    visit(item, scope, outer)

        visit(tree, [], None)
    return found


def probe() -> Set[Tuple[str, int]]:
    """The union of what every run called, each run in its own process."""
    reached: Set[Tuple[str, int]] = set()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "hits.json"
        for kind, target, argv in runs():
            print(f"probe: {kind} {Path(target).name} {' '.join(argv)}",
                  file=sys.stderr, flush=True)
            subprocess.run(
                [sys.executable, __file__, "--child", kind, target,
                 "--out", str(out), "--"] + argv,
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
            reached.update(map(tuple, json.loads(out.read_text())))
    return reached


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", nargs=2, metavar=("KIND", "TARGET"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("rest", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child, args.rest, args.out)
        return 0

    reached = probe()
    every = functions()
    unreached = [entry for entry in every
                 if (entry["file"], entry["line"]) not in reached]
    unreached_ids = {id(entry) for entry in unreached}
    body_lines = sum(entry["body_lines"] for entry in unreached
                     if id(entry["outer"]) not in unreached_ids)
    reasons = [KEEP.get(f"{entry['file']}:{entry['name']}")
               for entry in unreached]
    unexplained = reasons.count(None)
    print(f"functions: {len(every)}")
    print(f"unreached: {len(unreached)} ({body_lines} body lines)")
    print(f"explained: {len(unreached) - unexplained}")
    print(f"unexplained: {unexplained}")
    for entry, reason in zip(unreached, reasons):
        print(f"  src/repro/{entry['file']}:{entry['line']} "
              f"{entry['name']} ({entry['body_lines']} lines): "
              f"{reason or 'UNEXPLAINED'}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
