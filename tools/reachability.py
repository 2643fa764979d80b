#!/usr/bin/env python3
"""Which lines of ``src/repro`` only the tests run.

Runs every entry point that is not a unit test under one ``sys.settrace``
line tracer: the paper-figure benchmarks (``pytest benchmarks
--benchmark-disable``), every example, the ``observe``, ``chaos``,
``lint``, ``list`` and ``examples`` commands, and a short run of each
perfbench workload. Each run is a child process of this script. It
records the ``call`` of every ``src/repro`` code object and the lines
each one runs; the tracer returns ``None`` for every other frame, and
for a code object once all of its lines have run. Run from the root of a
checkout:

    python3 tools/reachability.py

A function no run calls is unreached. In a function that runs, the
statements no run executes group by the AST into blocks: the function
body, an if/elif/else arm, a loop body, a try/except/else/finally body,
a ``with`` body or a match case. An *error path* needs no reason: an
``except`` body, or a block whose last unexecuted statement is a
``raise``. Every other block, and every unreached function, needs a
reason in :data:`KEEP`. A function is keyed ``file:qualified name``
relative to ``src/repro``; a block is keyed ``file:qualified name:`` and
the text of the first line of its first unexecuted statement, so an edit
elsewhere in the file leaves the key unchanged. A key explains every
block of the function that it matches.

It prints the counts (functions, unreached functions with their body
lines, unexecuted blocks split into error paths and other blocks, and
how many of the unreached functions and other blocks :data:`KEEP`
explains) and then each unreached function and each block with its
reason. It exits 1 when one has no reason: such code either gains a
caller on a measured path or leaves ``src/``. It also exits 1, listing
the key as ``STALE``, when a key of :data:`KEEP` names neither an
unreached function nor an unexecuted block that is not an error path:
that reason has outlived its code.

``--benchmark-disable`` matters: pytest-benchmark suspends tracers
while it times a benchmark, so without it the modules the figures run
look unreached.

A run that fails stops the probe, so a broken entry point cannot pass
for unreached code; ``repro lint`` may exit 1, which only reports
findings.
"""

from __future__ import annotations

import argparse
import ast
import dis
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
WORKLOADS = ("startup", "tag-churn", "governance")
#: Seconds each perfbench workload runs.
PERFBENCH_SECONDS = 3.0

#: The reasons unreached code may stay in ``src/``, besides
#: :func:`reserved`.
PERFBENCH = "perfbench wraps it by name"
ORACLE = "test oracle"
UNCLEAN = ("refusal, bound, failure handling or document generator "
           "that a clean run never triggers")
REASONS = (PERFBENCH, ORACLE, UNCLEAN)


def reserved(item: int) -> str:
    """The reason of code that an open ROADMAP item will use."""
    return f"open ROADMAP item {item} reserves it"


#: Why each unreached function or unexecuted block stays. perfbench's
#: ``HostTracer.install`` reads the functions it wraps out of
#: ``owner.__dict__``, so they must exist even when no workload calls
#: them.
KEEP = {
    "crypto/merkle.py:MerkleTree.set_leaf": PERFBENCH,
    "crypto/merkle.py:MerkleTree.remove_leaf": PERFBENCH,
    "crypto/merkle.py:MerkleTree.prove": PERFBENCH,
    "crypto/merkle.py:MerkleProof.__init__": PERFBENCH,
    "crypto/merkle.py:MerkleProof.verify": PERFBENCH,
    "fs/shield.py:ProtectedFileSystem.close_file": PERFBENCH,
    "core/dispatch.py:_tag_get_process": reserved(2),
    "core/rest.py:PalaemonRestClient.close": reserved(3),
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
    # Blocks of functions that run.
    ("__main__.py:cmd_observe:"
     'print("observe: --seed must be non-empty", file=sys.stderr)'): UNCLEAN,
    "__main__.py:main:return cmd_bench(args.ids)": UNCLEAN,
    "analysis/cli.py:_run_lint:for code in sorted(RULES):": UNCLEAN,
    ("analysis/cli.py:_run_lint:"
     'print(f"lint: no such path: {path}", file=sys.stderr)'): UNCLEAN,
    "analysis/report.py:_summary_line:counts = []": UNCLEAN,
    ("analysis/report.py:render_text:"
     "tag = _SEVERITY_TAGS[finding.severity]"): UNCLEAN,
    "analysis/source_rules.py:_catches_exception:return False": UNCLEAN,
    "analysis/source_rules.py:_check_code_value:return": UNCLEAN,
    "analysis/source_rules.py:_check_code_value:yield Finding(": UNCLEAN,
    ("analysis/source_rules.py:_check_service_class.closure:"
     "return False"): UNCLEAN,
    "analysis/source_rules.py:_check_service_class:yield Finding(": UNCLEAN,
    "analysis/source_rules.py:check_bare_except:yield Finding(": UNCLEAN,
    "analysis/source_rules.py:check_broad_except:yield Finding(": UNCLEAN,
    ("analysis/source_rules.py:check_raw_endpoint_traffic:"
     'call = ".receive()"'): UNCLEAN,
    ("analysis/source_rules.py:check_raw_endpoint_traffic:"
     'call = ".send(...)"'): UNCLEAN,
    ("analysis/source_rules.py:check_raw_endpoint_traffic:"
     "yield Finding("): UNCLEAN,
    ("analysis/source_rules.py:check_retry_wrappers:"
     'what = f"defines {node.name}()"'): UNCLEAN,
    ("analysis/source_rules.py:check_retry_wrappers:"
     'what = f"{node.name}() takes a retry_policy parameter"'): UNCLEAN,
    "analysis/source_rules.py:check_retry_wrappers:yield Finding(": UNCLEAN,
    ("analysis/source_rules.py:check_unpickling:"
     "names = [alias.name for alias in node.names]"): UNCLEAN,
    "analysis/source_rules.py:check_unpickling:yield Finding(": UNCLEAN,
    ("analysis/source_rules.py:check_service_table_touch:"
     "owner = call.func.value"): UNCLEAN,
    ("analysis/source_rules.py:check_transport_bypasses_dispatcher:"
     "yield Finding("): UNCLEAN,
    ("analysis/source_rules.py:check_wall_clock:"
     'names = ", ".join(alias.name for alias in node.names)'): UNCLEAN,
    ("analysis/source_rules.py:check_wall_clock:"
     "yield _wall_clock_finding("): UNCLEAN,
    ("analysis/source_rules.py:check_whole_document_flush:"
     "yield Finding("): UNCLEAN,
    ("apps/kvstore.py:MemcachedServer.set:"
     "self._items.popitem(last=False)"): UNCLEAN,
    "apps/mariadb.py:MariaDBServer.get_row:return None": UNCLEAN,
    ("benchlib/tables.py:PaperComparison.ratio:"
     'return float("inf") if self.measured_value else 1.0'): UNCLEAN,
    "core/board.py:ApprovalService.decide:return None": UNCLEAN,
    ("core/board.py:BoardEvaluator.evaluate:"
     "outcome.unreachable.append(member.name)"): UNCLEAN,
    "core/dispatch.py:OperationRegistry.get:return None": UNCLEAN,
    'core/dispatch.py:error_code:return "internal"': UNCLEAN,
    ("core/failover.py:FailoverCoordinator.promote_backup:"
     "yield self.simulator.process(self.backup.start())"): reserved(16),
    ("core/failover.py:FailoverCoordinator.verify_primary_fenced.probe:"
     "return False"): reserved(16),
    ("core/failover.py:FailoverCoordinator.verify_primary_fenced:"
     "return False"): reserved(16),
    "core/federation.py:Federation.locate_policy:return None": UNCLEAN,
    ("core/policy.py:SecurityPolicy.from_dict:"
     "raw_threshold = len(members)"): UNCLEAN,
    "core/rollback.py:RollbackGuard.shutdown:return": UNCLEAN,
    "core/store.py:PolicyStore._flush:return": UNCLEAN,
    "core/store.py:PolicyStore._load:rows.pop(operation[1], None)": UNCLEAN,
    "core/store.py:PolicyStore._flush:self.store.delete(path)": UNCLEAN,
    "core/store.py:PolicyStore._roll_back:tables[table].pop(key, None)":
        UNCLEAN,
    ('core/store.py:PolicyStore._roll_back:'
     'self._data["version"] = self._version_before'): UNCLEAN,
    "core/store.py:PolicyStore.commit:gate.fail(error)": UNCLEAN,
    "core/yamlish.py:_parse_mapping:break": UNCLEAN,
    "core/yamlish.py:_parse_sequence:break": UNCLEAN,
    "core/yamlish.py:loads:return {}": UNCLEAN,
    "counters/rote.py:_Replica.prepare:return False": UNCLEAN,
    "crypto/merkle.py:MerkleTree.root:return _EMPTY_ROOT": UNCLEAN,
    ("crypto/primitives.py:hmac_sha256_states:"
     "key = hashlib.sha256(key).digest()"): UNCLEAN,
    "crypto/signatures.py:_is_strong_probable_prime:return False": UNCLEAN,
    "crypto/signatures.py:_pocklington_certifies:return False": UNCLEAN,
    "crypto/signatures.py:verify_signature:return False": UNCLEAN,
    ("fs/injection.py:InjectedFileView.__init__:"
     "spill_fs.write(path, content)"): UNCLEAN,
    ("fs/injection.py:InjectedFileView.read:"
     "return self._spill_fs.read(self.path)"): UNCLEAN,
    "fs/shield.py:ProtectedFileSystem.sync:self._evict(path)": UNCLEAN,
    "fs/shield.py:ProtectedFileSystem.sync:try:": UNCLEAN,
    "obs/audit.py:sanitize_details:clean[str(key)] = str(value)": UNCLEAN,
    "obs/telemetry.py:Telemetry.audit:return None": UNCLEAN,
    "obs/tracing.py:Tracer.finish:return": UNCLEAN,
    "sim/core.py:Process._resume:immediate = Event(self.simulator)": UNCLEAN,
    "sim/core.py:Process._resume:self.fail(SimulationError(": UNCLEAN,
    "sim/core.py:Process.interrupt:return": UNCLEAN,
    ("sim/core.py:Simulator.all_of.make_callback.callback:"
     "gate.fail(event.failure)"): UNCLEAN,
    "sim/core.py:Simulator.all_of.make_callback.callback:return": UNCLEAN,
    "sim/core.py:Simulator.all_of:gate.fail(event.failure)": UNCLEAN,
    "sim/core.py:Simulator.all_of:gate.succeed([])": UNCLEAN,
    "sim/core.py:Simulator.run:break": UNCLEAN,
    "sim/core.py:Simulator.run:self.now = max(self.now, until)": UNCLEAN,
    "sim/core.py:Simulator.run:self.now = until": UNCLEAN,
    "sim/core.py:Simulator.step:return False": UNCLEAN,
    "sim/core.py:Simulator.with_timeout:on_event(event)": UNCLEAN,
    'sim/faults.py:FaultPlan.message_fate:self._record("delay")': reserved(10),
    "sim/metrics.py:ThroughputMeter.rate:return 0.0": UNCLEAN,
    ("sim/metrics.py:ThroughputMeter.rate:"
     'return float("inf") if self.completed else 0.0'): UNCLEAN,
    "sim/network.py:Network.deliver.arrival:return": UNCLEAN,
    ("sim/network.py:Network.deliver:"
     "self.wire_log.append((self.simulator.now, source.name,"): ORACLE,
    "sim/network.py:Network.endpoint:existing.reopen()": reserved(10),
    # A deadline that passes while a request still queues.
    ("sim/resources.py:Resource.give_back:"
     "self._waiters.remove(grant)"): UNCLEAN,
    "sim/resources.py:Store.get:event.fail(StoreClosed(self.name))": UNCLEAN,
    "tee/enclave.py:Enclave.destroy:return": UNCLEAN,
    ("tee/ias.py:IntelAttestationService._judge:"
     "return AttestationVerdict.GROUP_OUT_OF_DATE"): UNCLEAN,
    ("tee/ias.py:IntelAttestationService._judge:"
     "return AttestationVerdict.KEY_REVOKED"): UNCLEAN,
    ("tee/ias.py:IntelAttestationService._judge:"
     "return AttestationVerdict.SIGNATURE_INVALID"): UNCLEAN,
    ("tee/quoting.py:QuotingEnclave.create_report:"
     "report_data = sha256(report_data)"): UNCLEAN,
    # No clean run closes a connection, or its endpoint, while a request
    # waits for its reply, or while the reader opens a record.
    ("tls/channel.py:TLSConnection._fail_waiting:"
     "waiting.fail(self._closed_error())"): UNCLEAN,
    "tls/channel.py:TLSConnection._read:return": UNCLEAN,
    "tls/channel.py:TLSConnection.close:return": UNCLEAN,
    ("tls/channel.py:TLSServer._serve_loop:"
     'self.records_dropped["not_authentic"] += 1'): UNCLEAN,
    ("tls/channel.py:TLSServer._serve_loop:"
     'self.records_dropped["unknown_session"] += 1'): UNCLEAN,
    ("tls/channel.py:TLSServer._register_session:"
     "self._sessions.popitem(last=False)"): UNCLEAN,
    "tls/channel.py:TLSServer.start:return": UNCLEAN,
    'tls/channel.py:_ServerSession.admit:return "too_old"': UNCLEAN,
    ("tls/channel.py:_ServerSession.admit:"
     "self.seen |= 1 << offset"): reserved(2),
    "tls/channel.py:_open_record:return None": UNCLEAN,
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


def _line_starts(code) -> Set[int]:
    """The lines a ``line`` event can name in ``code``, less its first
    line, which holds only the frame's entry."""
    return {line for _, line in dis.findlinestarts(code)
            if line is not None} - {code.co_firstlineno}


def child(kind: str, target: str, argv: List[str], out: Path) -> None:
    """Run one entry point under the line tracer and write the
    ``(file, first line)`` of every ``src/repro`` code object it called
    and, per file, the lines it ran."""
    prefix = str(SOURCE) + os.sep
    # id(code) -> the lines of a source code object that have not run
    # yet, or None for every other code object. ``codes`` keeps each code
    # object alive, so no id is reused during the run.
    pending: Dict[int, object] = {}
    codes: list = []

    def lines(frame, event, _arg):
        if event == "line":
            left = pending[id(frame.f_code)]
            left.discard(frame.f_lineno)
            if not left:
                frame.f_trace_lines = False
        return lines

    def trace(frame, _event, _arg):
        code = frame.f_code
        try:
            left = pending[id(code)]
        except KeyError:
            codes.append(code)
            left = (_line_starts(code)
                    if code.co_filename.startswith(prefix) else None)
            pending[id(code)] = left
        return lines if left else None

    sys.argv = [target] + argv
    threading.settrace(trace)
    sys.settrace(trace)
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
        sys.settrace(None)
        threading.settrace(None)
    called: Set[Tuple[str, int]] = set()
    ran: Dict[str, Set[int]] = defaultdict(set)
    for code in codes:
        left = pending[id(code)]
        if left is None:
            continue
        relative = code.co_filename[len(prefix):]
        called.add((relative, code.co_firstlineno))
        # A code object that was called ran its first line too, which
        # holds the whole body of a one-line function.
        ran[relative] |= (_line_starts(code) - left) | {code.co_firstlineno}
    out.write_text(json.dumps({
        "called": sorted(called),
        "lines": {file: sorted(ran[file]) for file in sorted(ran)}}))


def functions() -> List[dict]:
    """Every function and method under ``src/repro``, with the line its
    code object starts on (the first decorator, if any) and its AST."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        relative = path.relative_to(SOURCE).as_posix()
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        tree = ast.parse(text)

        def visit(node, scope, outer):
            for item in ast.iter_child_nodes(node):
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    start = min([item.lineno] + [decorator.lineno for
                                                 decorator in
                                                 item.decorator_list])
                    entry = {"file": relative, "line": start,
                             "name": ".".join(scope + [item.name]),
                             "body_lines": item.end_lineno - item.lineno,
                             "outer": outer, "node": item,
                             "source": source}
                    found.append(entry)
                    visit(item, scope + [item.name], entry)
                elif isinstance(item, ast.ClassDef):
                    visit(item, scope + [item.name], outer)
                else:
                    visit(item, scope, outer)

        visit(tree, [], None)
    return found


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_WITHS = (ast.With, ast.AsyncWith)
_TRIES = (ast.Try,) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())
_MATCH = getattr(ast, "Match", ())


def _arms(statement) -> List[Tuple[str, list]]:
    """The blocks a compound statement holds, each as (kind, body)."""
    if isinstance(statement, ast.If):
        return [("if arm", statement.body), ("else arm", statement.orelse)]
    if isinstance(statement, _LOOPS):
        return [("loop body", statement.body),
                ("loop else", statement.orelse)]
    if isinstance(statement, _TRIES):
        return ([("try body", statement.body)]
                + [("except", handler.body)
                   for handler in statement.handlers]
                + [("try else", statement.orelse),
                   ("finally", statement.finalbody)])
    if isinstance(statement, _WITHS):
        return [("with body", statement.body)]
    if isinstance(statement, _MATCH):
        return [("match case", case.body) for case in statement.cases]
    return []


def _silent(statement, docstring: bool) -> bool:
    """A statement that compiles to no line event: the docstring, a
    ``global`` or ``nonlocal`` declaration, or a bare annotation."""
    return ((docstring and isinstance(statement, ast.Expr)
             and isinstance(statement.value, ast.Constant)
             and isinstance(statement.value.value, str))
            or isinstance(statement, (ast.Global, ast.Nonlocal))
            or (isinstance(statement, ast.AnnAssign)
                and statement.value is None))


def blocks(entry: dict, ran: Set[int]) -> List[dict]:
    """The unexecuted blocks of one function that ran, given the lines
    of its file that ran. A statement ran when any of its lines did; the
    unexecuted statements of one body form its block, and the bodies
    inside a statement that ran are blocks of their own. Nested
    functions and classes are left to their own entries."""
    found = []

    def walk(kind: str, body: list, top: bool) -> None:
        idle = [statement for index, statement in enumerate(body)
                if not _silent(statement, top and index == 0)
                and not ran.intersection(range(statement.lineno,
                                               statement.end_lineno + 1))]
        if idle:
            first = idle[0]
            text = entry["source"][first.lineno - 1].strip()
            found.append({
                "file": entry["file"], "name": entry["name"],
                "kind": kind, "line": first.lineno,
                "key": f"{entry['file']}:{entry['name']}:{text}",
                "lines": sum(statement.end_lineno - statement.lineno + 1
                             for statement in idle),
                "error": kind == "except"
                or isinstance(idle[-1], ast.Raise)})
        for statement in body:
            if statement not in idle and not isinstance(statement, _DEFS):
                for arm_kind, arm in _arms(statement):
                    walk(arm_kind, arm, False)

    walk("function body", entry["node"].body, True)
    return found


def statement_keys(entry: dict) -> Set[str]:
    """The key each statement of a function would give a block that
    starts with it; nested functions and classes are left out."""
    keys = set()

    def walk(body: list) -> None:
        for statement in body:
            text = entry["source"][statement.lineno - 1].strip()
            keys.add(f"{entry['file']}:{entry['name']}:{text}")
            if not isinstance(statement, _DEFS):
                for _, arm in _arms(statement):
                    walk(arm)

    walk(entry["node"].body)
    return keys


def probe() -> dict:
    """The union of what every run called and ran, each run in its own
    process: ``called`` holds ``(file, first line)`` pairs and ``lines``
    maps each file to the set of lines that ran. Prints each run's wall
    time, slowest first, and their total to stderr."""
    called: Set[Tuple[str, int]] = set()
    ran: Dict[str, Set[int]] = defaultdict(set)
    walls: List[Tuple[float, str]] = []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "hits.json"
        for kind, target, argv in runs():
            label = " ".join([kind, Path(target).name] + argv)
            print(f"probe: {label}", file=sys.stderr, flush=True)
            started = time.monotonic()
            subprocess.run(
                [sys.executable, __file__, "--child", kind, target,
                 "--out", str(out), "--"] + argv,
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
            walls.append((time.monotonic() - started, label))
            hits = json.loads(out.read_text())
            called.update(map(tuple, hits["called"]))
            for file, lines in hits["lines"].items():
                ran[file].update(lines)
    for seconds, label in sorted(walls, reverse=True):
        print(f"probe: {seconds:6.1f} s  {label}", file=sys.stderr)
    print(f"probe: {sum(seconds for seconds, _ in walls):6.1f} s  total",
          file=sys.stderr, flush=True)
    return {"called": called, "lines": ran}


def _where(block: dict) -> str:
    return (f"src/repro/{block['file']}:{block['line']} {block['kind']} of "
            f"{block['name']} ({block['lines']} lines)")


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

    hits = probe()
    every = functions()
    unreached = [entry for entry in every
                 if (entry["file"], entry["line"]) not in hits["called"]]
    unreached_ids = {id(entry) for entry in unreached}
    body_lines = sum(entry["body_lines"] for entry in unreached
                     if id(entry["outer"]) not in unreached_ids)
    found = [block for entry in every if id(entry) not in unreached_ids
             for block in blocks(entry, hits["lines"].get(entry["file"],
                                                          set()))]
    errors = [block for block in found if block["error"]]
    others = [block for block in found if not block["error"]]
    listed = ([(f"src/repro/{entry['file']}:{entry['line']} {entry['name']}"
                f" ({entry['body_lines']} lines)",
                KEEP.get(f"{entry['file']}:{entry['name']}"))
               for entry in unreached]
              + [(_where(block), KEEP.get(block["key"]))
                 for block in others])
    unexplained = [line for line, reason in listed if reason is None]
    stale = sorted(set(KEEP).difference(
        [f"{entry['file']}:{entry['name']}" for entry in unreached],
        [block["key"] for block in others]))
    print(f"functions: {len(every)}")
    print(f"unreached functions: {len(unreached)} ({body_lines} body lines)")
    print(f"unexecuted blocks: {len(found)} (error paths: {len(errors)}, "
          f"{sum(block['lines'] for block in errors)} lines; other: "
          f"{len(others)}, {sum(block['lines'] for block in others)} lines)")
    print(f"explained: {len(listed) - len(unexplained)}")
    print(f"unexplained: {len(unexplained)}")
    for line, reason in listed:
        print(f"  {line}: {reason or 'UNEXPLAINED'}")
    for block in errors:
        print(f"  {_where(block)}: error path")
    for key in stale:
        print(f"  {key}: STALE (no unreached function or other block)")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
