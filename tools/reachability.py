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
no run reached with their body lines, and the unreached list. Body lines
count from the line after ``def`` to the end of the function; a function
nested in an unreached one adds no lines of its own. The counts are a
report; no threshold is applied.

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
    print(f"functions: {len(every)}")
    print(f"unreached: {len(unreached)} ({body_lines} body lines)")
    for entry in unreached:
        print(f"  src/repro/{entry['file']}:{entry['line']} "
              f"{entry['name']} ({entry['body_lines']} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
