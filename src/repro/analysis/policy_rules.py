"""Policy-analysis rules (``PAL0xx``): trust misconfiguration, pre-runtime.

Per-policy rules check boards, secret flow, and environments; set-scoped
rules check the cross-policy import graph.  Every
rule yields :class:`Finding` objects with the policy name as subject.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.analysis.context import PolicySetContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule
from repro.core.policy import SecurityPolicy

#: Environment variables that put the enclave into a debuggable or
#: simulated mode, defeating attestation guarantees (§II-A: debug
#: enclaves allow memory inspection by the operator).
_DEBUG_ENVIRONMENT = {
    "SCONE_MODE": ("sim", "debug"),
    "SGX_DEBUG": ("1", "true", "yes", "on"),
    "SCONE_ALLOW_DEBUG": ("1", "true", "yes", "on"),
}


def required_threshold(member_count: int) -> Tuple[int, int]:
    """``(f, f+1)`` for a board of ``member_count`` members.

    With ``n`` stakeholders of which at most ``f`` are Byzantine, the
    paper's quorum rule needs ``n >= 2f+1`` and a threshold of ``f+1``
    (§III-C); the largest tolerable fault budget is ``f = (n-1)//2``.
    """
    fault_budget = (member_count - 1) // 2
    return fault_budget, fault_budget + 1


@rule("PAL001", "weak board quorum", scope="policy",
      severity=Severity.ERROR)
def check_weak_quorum(policy: SecurityPolicy,
                      ctx: PolicySetContext) -> Iterator[Finding]:
    board = policy.board
    if board is None:
        return
    members = len(board.members)
    fault_budget, needed = required_threshold(members)
    if board.threshold >= needed:
        return
    severity = (Severity.CRITICAL
                if board.threshold <= 1 and members > 1
                else Severity.ERROR)
    yield Finding(
        code="PAL001", severity=severity, subject=policy.name,
        message=(f"board threshold {board.threshold} is below f+1={needed} "
                 f"for {members} members (tolerates f={fault_budget} "
                 f"Byzantine stakeholders)"),
        hint=f"set board.threshold to at least {needed}")


@rule("PAL002", "veto-less board", scope="policy",
      severity=Severity.WARNING)
def check_vetoless_board(policy: SecurityPolicy,
                         ctx: PolicySetContext) -> Iterator[Finding]:
    board = policy.board
    if board is None or len(board.members) < 2:
        return
    if any(member.veto for member in board.members):
        return
    yield Finding(
        code="PAL002", severity=Severity.WARNING, subject=policy.name,
        message=(f"none of the {len(board.members)} board members holds "
                 f"veto power; a colluding quorum cannot be blocked by an "
                 f"honest minority"),
        hint="mark the most security-sensitive stakeholder veto: true")


@rule("PAL014", "unused secret", scope="policy",
      severity=Severity.WARNING)
def check_unused_secrets(policy: SecurityPolicy,
                         ctx: PolicySetContext) -> Iterator[Finding]:
    referenced = set(ctx.referenced_secret_names(policy))
    for secret in policy.secrets:
        if secret.name in referenced or secret.export_to:
            continue
        yield Finding(
            code="PAL014", severity=Severity.WARNING, subject=policy.name,
            message=(f"secret {secret.name!r} is neither referenced by any "
                     f"service (injection file, environment, argv) nor "
                     f"exported to another policy"),
            hint="dead secrets widen the audit surface; drop or use it")


@rule("PAL015", "undefined secret reference", scope="policy",
      severity=Severity.ERROR)
def check_undefined_references(policy: SecurityPolicy,
                               ctx: PolicySetContext) -> Iterator[Finding]:
    defined = {secret.name for secret in policy.secrets}
    defined.update(spec.bound_name for spec in policy.imports)
    for name in ctx.referenced_secret_names(policy):
        if name in defined:
            continue
        yield Finding(
            code="PAL015", severity=Severity.ERROR, subject=policy.name,
            message=(f"services reference $$PALAEMON${name}$$ but the "
                     f"policy neither declares nor imports a secret "
                     f"named {name!r}"),
            hint="attestation would fail at injection time")


@rule("PAL020", "secret injected via argv", scope="policy",
      severity=Severity.CRITICAL)
def check_argv_secret(policy: SecurityPolicy,
                      ctx: PolicySetContext) -> Iterator[Finding]:
    from repro.fs.injection import find_variables

    for service in policy.services:
        for index, part in enumerate(service.command):
            names = find_variables(part.encode())
            if not names:
                continue
            listed = ", ".join(sorted(set(names)))
            yield Finding(
                code="PAL020", severity=Severity.CRITICAL,
                subject=policy.name,
                message=(f"service {service.name!r} injects secret(s) "
                         f"{listed} into argv[{index}]; command lines are "
                         f"world-readable through /proc/<pid>/cmdline "
                         f"outside the TEE (docs/THREAT_MODEL.md)"),
                hint="use inject_files or environment instead of argv")


@rule("PAL021", "debug attestation acceptance", scope="policy",
      severity=Severity.CRITICAL)
def check_debug_environment(policy: SecurityPolicy,
                            ctx: PolicySetContext) -> Iterator[Finding]:
    for service in policy.services:
        for key in sorted(service.environment):
            accepted = _DEBUG_ENVIRONMENT.get(key.upper())
            if accepted is None:
                continue
            value = service.environment[key]
            if value.strip().lower() not in accepted:
                continue
            yield Finding(
                code="PAL021", severity=Severity.CRITICAL,
                subject=policy.name,
                message=(f"service {service.name!r} sets {key}={value}: a "
                         f"debug/simulated enclave lets the operator read "
                         f"enclave memory, so any attestation it passes is "
                         f"worthless"),
                hint="production policies must pin hardware mode")


@rule("PAL031", "stale permitted combination", scope="policy",
      severity=Severity.WARNING)
def check_stale_combinations(policy: SecurityPolicy,
                             ctx: PolicySetContext) -> Iterator[Finding]:
    if not policy.permitted_combinations:
        return
    service_mres = {mre for service in policy.services
                    for mre in service.mrenclaves}
    for mre, _tag in sorted(policy.permitted_combinations):
        if mre in service_mres:
            continue
        yield Finding(
            code="PAL031", severity=Severity.WARNING, subject=policy.name,
            message=(f"permitted combination pins MRENCLAVE "
                     f"{mre.hex()[:16]}... that no service of the policy "
                     f"lists; it can never attest and hides drift from the "
                     f"image policy"),
            hint="re-run apply_image_export after service updates")


# -- set-scoped rules -------------------------------------------------------


@rule("PAL010", "dangling secret import", scope="policyset",
      severity=Severity.ERROR)
def check_dangling_imports(ctx: PolicySetContext) -> Iterator[Finding]:
    for name in ctx.names():
        policy = ctx.policies[name]
        for spec in policy.imports:
            source = ctx.policies.get(spec.from_policy)
            if source is None:
                yield Finding(
                    code="PAL010", severity=Severity.ERROR, subject=name,
                    message=(f"imports {spec.secret_name!r} from unknown "
                             f"policy {spec.from_policy!r}"),
                    hint="the import would fail at attestation time")
                continue
            if not source.exports_secret_to(spec.secret_name, name):
                yield Finding(
                    code="PAL010", severity=Severity.ERROR, subject=name,
                    message=(f"imports {spec.secret_name!r} from "
                             f"{spec.from_policy!r}, which does not export "
                             f"it to {name!r}"),
                    hint=(f"add {name!r} to the secret's export list in "
                          f"{spec.from_policy!r}"))


@rule("PAL011", "import cycle", scope="policyset",
      severity=Severity.ERROR)
def check_import_cycles(ctx: PolicySetContext) -> Iterator[Finding]:
    edges = {name: sorted(
        {spec.from_policy for spec in ctx.policies[name].imports
         if spec.from_policy in ctx.policies}
        | {spec.from_policy for spec in ctx.policies[name].volume_imports
           if spec.from_policy in ctx.policies})
        for name in ctx.names()}
    seen_cycles = set()
    for start in ctx.names():
        stack: List[str] = []
        on_stack = set()

        def visit(node: str) -> Iterator[Tuple[str, ...]]:
            stack.append(node)
            on_stack.add(node)
            for successor in edges.get(node, ()):
                if successor in on_stack:
                    cycle = tuple(stack[stack.index(successor):])
                    yield cycle
                else:
                    yield from visit(successor)
            stack.pop()
            on_stack.discard(node)

        for cycle in visit(start):
            canonical = min(
                tuple(cycle[i:] + cycle[:i]) for i in range(len(cycle)))
            if canonical in seen_cycles:
                continue
            seen_cycles.add(canonical)
            rendered = " -> ".join(canonical + (canonical[0],))
            yield Finding(
                code="PAL011", severity=Severity.ERROR,
                subject=canonical[0],
                message=(f"policy import cycle: {rendered}; no creation "
                         f"order can satisfy it and a Byzantine stakeholder "
                         f"inside the cycle can wedge every participant"),
                hint="split the shared secret into its own leaf policy")


@rule("PAL012", "dangling volume import", scope="policyset",
      severity=Severity.ERROR)
def check_dangling_volume_imports(ctx: PolicySetContext) -> Iterator[Finding]:
    for name in ctx.names():
        policy = ctx.policies[name]
        for spec in policy.volume_imports:
            source = ctx.policies.get(spec.from_policy)
            if source is None:
                yield Finding(
                    code="PAL012", severity=Severity.ERROR, subject=name,
                    message=(f"imports volume {spec.volume_name!r} from "
                             f"unknown policy {spec.from_policy!r}"),
                    hint="the volume grant would fail at attestation time")
                continue
            if not source.exports_volume_to(spec.volume_name, name):
                yield Finding(
                    code="PAL012", severity=Severity.ERROR, subject=name,
                    message=(f"imports volume {spec.volume_name!r} from "
                             f"{spec.from_policy!r}, which does not export "
                             f"it to {name!r}"),
                    hint=(f"set 'export: {name}' on the volume in "
                          f"{spec.from_policy!r}"))


@rule("PAL013", "unused export", scope="policyset",
      severity=Severity.WARNING)
def check_unused_exports(ctx: PolicySetContext) -> Iterator[Finding]:
    for name in ctx.names():
        policy = ctx.policies[name]
        for secret in policy.secrets:
            for target in sorted(secret.export_to):
                importer = ctx.policies.get(target)
                if importer is None:
                    yield Finding(
                        code="PAL013", severity=Severity.WARNING,
                        subject=name,
                        message=(f"secret {secret.name!r} is exported to "
                                 f"unknown policy {target!r}"),
                        hint="a later policy with that name gains access "
                             "silently; export to existing policies only")
                elif not ctx.imports_of(importer, name, secret.name):
                    yield Finding(
                        code="PAL013", severity=Severity.WARNING,
                        subject=name,
                        message=(f"secret {secret.name!r} is exported to "
                                 f"{target!r}, which never imports it"),
                        hint="remove the stale entry from the export list")
