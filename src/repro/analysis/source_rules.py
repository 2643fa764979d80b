"""Repo-lint rules (``SRC1xx``): deterministic AST checks on our sources.

Built on stdlib ``ast`` — unlike a substring scan, a comment or string
literal mentioning ``time.time`` does not trip these rules.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, Set

from repro.analysis.context import SourceFile
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule

#: Packages whose behaviour must be a pure function of the seed: the
#: simulator, the telemetry that records simulated time, and this
#: analyzer itself (lint output is asserted byte-identical across runs).
DETERMINISTIC_PACKAGES = ("repro.sim", "repro.obs", "repro.analysis")

#: ``time`` module attributes that read the host clock.
_WALL_CLOCK_ATTRS = frozenset((
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "localtime",
    "gmtime"))
#: ``datetime``/``date`` constructors that read the host clock.
_NOW_ATTRS = frozenset(("now", "utcnow", "today"))

_SNAKE_CASE = re.compile(r"^[a-z][a-z0-9_]*$")


#: Packages that own raw endpoint traffic: the message fabric and the
#: one TLS request/reply channel every transport rides.
RAW_TRAFFIC_PACKAGES = ("repro.sim", "repro.tls")


def _in_packages(module: str, packages) -> bool:
    return any(module == package or module.startswith(package + ".")
               for package in packages)


def _in_deterministic_package(module: str) -> bool:
    return _in_packages(module, DETERMINISTIC_PACKAGES)


@rule("SRC101", "wall clock in deterministic package", scope="source",
      severity=Severity.ERROR)
def check_wall_clock(source: SourceFile) -> Iterator[Finding]:
    if not _in_deterministic_package(source.module):
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "time":
                    yield _wall_clock_finding(
                        source, node.lineno,
                        f"imports the 'time' module (as "
                        f"{alias.asname or alias.name!r})")
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "time":
                names = ", ".join(alias.name for alias in node.names)
                yield _wall_clock_finding(
                    source, node.lineno,
                    f"imports {names} from the 'time' module")
        elif isinstance(node, ast.Call):
            target = node.func
            if not isinstance(target, ast.Attribute):
                continue
            value = target.value
            if (target.attr in _WALL_CLOCK_ATTRS
                    and isinstance(value, ast.Name)
                    and value.id == "time"):
                yield _wall_clock_finding(
                    source, node.lineno, f"calls time.{target.attr}()")
            elif target.attr in _NOW_ATTRS and _names_datetime(value):
                yield _wall_clock_finding(
                    source, node.lineno,
                    f"calls {ast.unparse(target)}()")


def _names_datetime(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("datetime", "date")
    if isinstance(node, ast.Attribute):
        return node.attr in ("datetime", "date")
    return False


def _wall_clock_finding(source: SourceFile, line: int,
                        what: str) -> Finding:
    return Finding(
        code="SRC101", severity=Severity.ERROR, subject=source.display,
        line=line,
        message=(f"{source.module} {what}; {_package_of(source.module)} "
                 f"must stay deterministic (same seed, same bytes)"),
        hint="use the simulator clock (simulator.now / a clock callable)")


def _package_of(module: str) -> str:
    for package in DETERMINISTIC_PACKAGES:
        if module == package or module.startswith(package + "."):
            return package
    return module


@rule("SRC102", "bare except", scope="source",
      severity=Severity.WARNING)
def check_bare_except(source: SourceFile) -> Iterator[Finding]:
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield Finding(
                code="SRC102", severity=Severity.WARNING,
                subject=source.display, line=node.lineno,
                message="bare 'except:' swallows SystemExit and "
                        "KeyboardInterrupt along with real errors",
                hint="name the exception class; the error taxonomy in "
                     "repro.errors is there to be caught precisely")


#: The one module allowed to catch ``Exception``: the dispatch boundary
#: turns arbitrary handler failures into error replies instead of killing
#: a serve loop (it is where every transport's requests converge).
#: Everywhere else a broad catch hides the difference between a transient
#: fault (retryable) and a security verdict (never retryable) — the exact
#: conflation that let ``RollbackGuard`` mint a fresh counter during a
#: counter outage.
_BROAD_CATCH_BOUNDARY = "repro.core.dispatch"


@rule("SRC105", "broad 'except Exception' outside the dispatch boundary",
      scope="source", severity=Severity.ERROR)
def check_broad_except(source: SourceFile) -> Iterator[Finding]:
    if source.module == _BROAD_CATCH_BOUNDARY:
        return
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if _catches_exception(node.type):
            yield Finding(
                code="SRC105", severity=Severity.ERROR,
                subject=source.display, line=node.lineno,
                message=("'except Exception' outside the dispatch boundary "
                         "conflates transient faults with security "
                         "verdicts (rollback, attestation, access "
                         "denials) and masks real failures"),
                hint="name the repro.errors class; only repro.core.dispatch "
                     "may catch Exception (to map failures to replies)")


def _catches_exception(handler_type) -> bool:
    if isinstance(handler_type, ast.Name):
        return handler_type.id == "Exception"
    if isinstance(handler_type, ast.Tuple):
        return any(_catches_exception(element)
                   for element in handler_type.elts)
    return False


#: Modules whose literal ``code`` values are wire-visible API surface:
#: the dispatch pipeline (which builds every error reply) and the REST
#: codec that carries them.
_ERROR_CODE_MODULES = frozenset(("repro.core.rest", "repro.core.dispatch"))


@rule("SRC103", "non-snake_case REST error code", scope="source",
      severity=Severity.ERROR)
def check_rest_error_codes(source: SourceFile) -> Iterator[Finding]:
    if source.module not in _ERROR_CODE_MODULES:
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg == "code":
                    yield from _check_code_value(source, keyword.value)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (isinstance(key, ast.Constant)
                        and key.value == "code"):
                    yield from _check_code_value(source, value)


def _check_code_value(source: SourceFile,
                      value: ast.expr) -> Iterator[Finding]:
    if not isinstance(value, ast.Constant):
        return  # dynamic codes are produced by error_code(), which lints
    if not isinstance(value.value, str):
        return
    if _SNAKE_CASE.match(value.value):
        return
    yield Finding(
        code="SRC103", severity=Severity.ERROR, subject=source.display,
        line=value.lineno,
        message=(f"REST error code {value.value!r} violates the "
                 f"snake_case convention clients match on"),
        hint="use lowercase letters, digits, underscores")


@rule("SRC104", "unaudited state change", scope="source",
      severity=Severity.ERROR)
def check_unaudited_state_change(source: SourceFile) -> Iterator[Finding]:
    if source.module != "repro.core.service":
        return
    for node in source.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "PalaemonService":
            yield from _check_service_class(source, node)


def _check_service_class(source: SourceFile,
                         cls: ast.ClassDef) -> Iterator[Finding]:
    methods: Dict[str, ast.AST] = {}
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[item.name] = item

    facts = {name: _method_facts(body, set(methods))
             for name, body in methods.items()}

    def closure(name: str, key: str, seen: Set[str]) -> bool:
        if name in seen:
            return False
        seen.add(name)
        direct, helpers = facts[name]
        if key in direct:
            return True
        return any(closure(helper, key, seen) for helper in helpers)

    for name in sorted(methods):
        if name.startswith("_"):
            continue  # helpers are covered through their public callers
        if not closure(name, "mutates", set()):
            continue
        if closure(name, "audits", set()):
            continue
        yield Finding(
            code="SRC104", severity=Severity.ERROR, subject=source.display,
            line=methods[name].lineno,
            message=(f"PalaemonService.{name} changes persistent state "
                     f"(store put/delete/commit) but never emits an audit "
                     f"record, breaking the hash-chained audit trail"),
            hint="call self.telemetry.audit(...) on every outcome")


@rule("SRC106", "whole-database serialization on the flush path",
      scope="source", severity=Severity.ERROR)
def check_whole_document_flush(source: SourceFile) -> Iterator[Finding]:
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call) and _is_whole_document_dump(node):
            yield Finding(
                code="SRC106", severity=Severity.ERROR,
                subject=source.display, line=node.lineno,
                message=("pickle.dumps(self._data) serializes the whole "
                         "document per flush — the O(database) write path "
                         "the log-structured store exists to avoid"),
                hint="append a log record")


@rule("SRC110", "whole-table snapshot forced on a request path",
      scope="source", severity=Severity.ERROR)
def check_service_table_touch(source: SourceFile) -> Iterator[Finding]:
    if source.module != "repro.core.service":
        return
    for node in source.tree.body:
        if not (isinstance(node, ast.ClassDef)
                and node.name == "PalaemonService"):
            continue
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "touch"):
                continue
            owner = call.func.value
            if isinstance(owner, ast.Attribute) and owner.attr == "store":
                yield Finding(
                    code="SRC110", severity=Severity.ERROR,
                    subject=source.display, line=call.lineno,
                    message=("PalaemonService calls store.touch(), which "
                             "reseals the whole table at the next flush; "
                             "on a request path that costs O(policies) "
                             "per write"),
                    hint="log the changed value with store.put(table, "
                         "key, value)")


def _is_whole_document_dump(call: ast.Call) -> bool:
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "dumps"
            and isinstance(func.value, ast.Name)
            and func.value.id == "pickle"):
        return False
    return any(isinstance(arg, ast.Attribute) and arg.attr == "_data"
               and isinstance(arg.value, ast.Name) and arg.value.id == "self"
               for arg in call.args)


#: The transport codecs: every request they carry must go through the
#: dispatch pipeline, never straight into ``PalaemonService`` methods —
#: a direct call skips admission control, auth, and the uniform error
#: mapping the CIF guarantees depend on.
_TRANSPORT_MODULES = frozenset((
    "repro.core.rest", "repro.core.federation", "repro.core.failover",
    "repro.core.client"))

#: ``PalaemonService`` operation methods (the registry's handlers own
#: these calls; transports do not).
_SERVICE_OPERATION_METHODS = frozenset((
    "create_policy", "read_policy", "update_policy", "delete_policy",
    "list_policies", "attest_application", "get_tag_instant",
    "update_tag_instant", "get_tag", "update_tag", "get_volume_tag",
    "update_volume_tag"))


@rule("SRC107", "direct service call from a transport module",
      scope="source", severity=Severity.ERROR)
def check_transport_bypasses_dispatcher(source: SourceFile,
                                        ) -> Iterator[Finding]:
    if source.module not in _TRANSPORT_MODULES:
        return
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in _SERVICE_OPERATION_METHODS):
            yield Finding(
                code="SRC107", severity=Severity.ERROR,
                subject=source.display, line=node.lineno,
                message=(f"{source.module} calls PalaemonService."
                         f"{func.attr}() directly, bypassing the dispatch "
                         f"pipeline (admission control, auth, uniform "
                         f"error mapping)"),
                hint="transports are codecs: build a request dict and "
                     "hand it to the service's Dispatcher")


@rule("SRC108", "raw endpoint traffic outside repro.sim/repro.tls",
      scope="source", severity=Severity.ERROR)
def check_raw_endpoint_traffic(source: SourceFile) -> Iterator[Finding]:
    if _in_packages(source.module, RAW_TRAFFIC_PACKAGES):
        return
    for node in ast.walk(source.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "send" and (
                len(node.args) >= 2
                or any(keyword.arg in ("size_bytes", "reply_to")
                       for keyword in node.keywords)):
            call = ".send(...)"
        elif (node.func.attr == "receive"
              and not node.args and not node.keywords):
            call = ".receive()"
        else:
            continue
        yield Finding(
            code="SRC108", severity=Severity.ERROR,
            subject=source.display, line=node.lineno,
            message=(f"{source.module} moves raw endpoint traffic "
                     f"({call}); a hand-rolled channel skips the sealing, "
                     f"request ids and junk dropping of repro.tls"),
            hint="use TLSConnection.request / TLSServer")


@rule("SRC109", "retry wrapper outside repro.sim.retry", scope="source",
      severity=Severity.ERROR)
def check_retry_wrappers(source: SourceFile) -> Iterator[Finding]:
    if source.module == "repro.sim.retry":
        return
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = node.args
        names = [arg.arg for arg in (arguments.posonlyargs + arguments.args
                                     + arguments.kwonlyargs)]
        if node.name.endswith("_with_retry"):
            what = f"defines {node.name}()"
        elif "retry_policy" in names:
            what = f"{node.name}() takes a retry_policy parameter"
        else:
            continue
        yield Finding(
            code="SRC109", severity=Severity.ERROR,
            subject=source.display, line=node.lineno,
            message=(f"{source.module} {what}; a retry wrapper hides the "
                     f"budget, rng and label a caller must still pass"),
            hint="compose RetryPolicy(...).call(...) at the call site")


def _method_facts(method: ast.AST, method_names: Set[str]):
    """(facts, helpers): which primitives a method touches directly."""
    direct: Set[str] = set()
    helpers: Set[str] = set()
    for node in ast.walk(method):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        owner = func.value
        if (isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "self"):
            if (owner.attr == "store"
                    and func.attr in ("put", "delete", "touch", "commit",
                                      "commit_instant")):
                direct.add("mutates")
            elif owner.attr == "telemetry" and func.attr == "audit":
                direct.add("audits")
        elif isinstance(owner, ast.Name) and owner.id == "self":
            if func.attr in method_names:
                helpers.add(func.attr)
    return direct, helpers
