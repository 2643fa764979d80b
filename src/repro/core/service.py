"""The PALAEMON service (§IV).

One :class:`PalaemonService` is one PALAEMON instance: an enclave on a
platform, an encrypted policy database, a rollback guard pairing that
database with a hardware monotonic counter, an identity key pair in sealed
storage, and a certificate from the PALAEMON CA.

Behaviour depends *solely on the MRENCLAVE*: the class deliberately exposes
no configuration knobs affecting the CIF guarantees (§IV-B) — a provider
can place it anywhere, but cannot weaken it without changing its identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.attestation import (
    AttestationEvidence,
    PlatformRegistry,
    verify_evidence,
)
from repro.core.board import AccessRequest, BoardEvaluator
from repro.core.ca import PalaemonCA
from repro.core.dispatch import Dispatcher
from repro.core.policy import SecurityPolicy, ServiceSpec
from repro.core.rollback import RollbackGuard
from repro.core.secrets import SecretValue, materialize_all
from repro.core.store import PolicyStore
from repro.crypto.certificates import Certificate
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.signatures import KeyPair
from repro.errors import (
    AccessDeniedError,
    AttestationError,
    PolicyError,
    PolicyExistsError,
    PolicyNotFoundError,
    PolicyValidationError,
    ReproError,
    StrictModeError,
)
from repro.fs.blockstore import BlockStore
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.core import Event, Simulator
from repro.tee.enclave import Enclave
from repro.tee.image import EnclaveImage, build_image
from repro.tee.platform import SGXPlatform
from repro.tee.sealing import SealedBlob


def build_palaemon_image(version: str = "1.0") -> EnclaveImage:
    """The PALAEMON service binary (its MRE identifies correct versions)."""
    return build_image("palaemon-service", code_size=512 * 1024,
                       data_size=64 * 1024, heap_bytes=64 * 1024 * 1024,
                       version=version)


@dataclass
class AppConfig:
    """What an attested application receives (§IV-A): arguments, environment,
    file-system keys and tags, and files with injected secrets."""

    command: List[str]
    environment: Dict[str, str]
    fs_key: bytes
    fs_tag: Optional[bytes]
    injected_files: Dict[str, bytes]
    secrets: Dict[str, bytes]
    strict_mode: bool = False
    #: Encrypted volumes available to the application: volume name ->
    #: (key, expected tag, mount path). Includes volumes imported from
    #: other policies via their export lists (List 1, footnote 1).
    volumes: Dict[str, "VolumeGrant"] = field(default_factory=dict)


@dataclass
class VolumeGrant:
    """Access to one encrypted volume: its key, expected tag, and path."""

    key: bytes
    expected_tag: Optional[bytes]
    path: str
    owner_policy: str


@dataclass
class _ServiceState:
    """Per-(policy, service) runtime state PALAEMON tracks."""

    expected_tag: Optional[bytes] = None
    clean_exit: bool = True
    executions: int = 0


class PalaemonService:
    """A PALAEMON instance."""

    COUNTER_ID = "palaemon-db"
    IDENTITY_SEAL_LABEL = "palaemon-identity"

    def __init__(self, platform: SGXPlatform, store: BlockStore,
                 rng: DeterministicRandom,
                 board_evaluator: Optional[BoardEvaluator] = None,
                 version: str = "1.0",
                 name: str = "palaemon-1",
                 telemetry: Optional[Telemetry] = None) -> None:
        self.platform = platform
        self.simulator: Simulator = platform.simulator
        self.name = name
        self._rng = rng
        #: Creation-time randomness for policies (secrets, fs and volume
        #: keys); keyed by this lifetime's counter value in :meth:`start`.
        self._key_rng: Optional[DeterministicRandom] = None
        self.image = build_palaemon_image(version=version)
        self.enclave: Enclave = platform.launch_instant(self.image)
        self.board_evaluator = board_evaluator
        self.platform_registry = PlatformRegistry()
        self.certificate: Optional[Certificate] = None
        self.running = False
        self.draining = False

        #: In-enclave telemetry: metrics, spans, and the hash-chained audit
        #: log (docs/OBSERVABILITY.md). Pass ``NULL_TELEMETRY`` to disable.
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry.for_simulator(self.simulator))
        if (board_evaluator is not None
                and board_evaluator.telemetry is NULL_TELEMETRY):
            board_evaluator.telemetry = self.telemetry

        # Identity: restored from sealed storage across restarts, created on
        # first boot (§IV-B).
        sealed = _read_sealed_identity(store)
        if sealed is not None:
            material = platform.sealing.unseal(self.enclave, sealed)
            self._identity, db_key = _decode_identity(material)
        else:
            self._identity = KeyPair.generate(rng.fork(b"identity"))
            db_key = rng.fork(b"db-key").bytes(32)
            blob = platform.sealing.seal(
                self.enclave, self.IDENTITY_SEAL_LABEL,
                _encode_identity(self._identity, db_key))
            _write_sealed_identity(store, blob)

        self.store = PolicyStore(self.simulator, store, db_key,
                                 rng.fork(b"store"),
                                 telemetry=self.telemetry)
        self.rollback_guard = RollbackGuard(self.store, platform.counters,
                                            f"{name}:{self.COUNTER_ID}",
                                            telemetry=self.telemetry)
        self.rollback_guard.ensure_counter()

        #: Every transport (REST, federation, failover, in-process client)
        #: reaches this instance through the same middleware pipeline
        #: (docs/API.md, repro.core.dispatch).
        self.dispatcher = Dispatcher(self)

    # -- identity & lifecycle ------------------------------------------------

    @property
    def public_key(self):
        return self._identity.public

    @property
    def key_pair(self) -> KeyPair:
        """The instance identity behind :attr:`certificate` (in-enclave)."""
        return self._identity

    @property
    def mrenclave(self) -> bytes:
        return self.enclave.mrenclave

    def obtain_certificate(self, ca: PalaemonCA) -> Certificate:
        """Attest to the PALAEMON CA and receive a TLS certificate."""
        quote = self.platform.quoting_enclave.quote(
            self.enclave, sha256(self.public_key.to_bytes()))
        self.certificate = ca.issue_instance_certificate(
            quote, self.public_key, subject=self.name)
        return self.certificate

    def start(self) -> Generator[Event, Any, None]:
        """Run the Fig 6 startup protocol; raises on rollback/cloning."""
        counter_value = yield self.simulator.process(
            self.rollback_guard.startup())
        self._key_rng = self._rng.fork(b"lifetime:%d" % counter_value)
        self.running = True
        self.draining = False

    def shutdown(self) -> Generator[Event, Any, None]:
        """Graceful shutdown: drain, reconcile version, commit, exit."""
        self.draining = True
        yield self.simulator.process(self.rollback_guard.shutdown())
        self.running = False

    def crash(self) -> None:
        """Abrupt termination: the version update never happens."""
        self.rollback_guard.crash()
        self.running = False

    def _check_serving(self) -> None:
        if not self.running or self.draining:
            raise PolicyError(f"instance {self.name!r} is not serving")

    # -- board approval ----------------------------------------------------

    def _approve(self, policy: SecurityPolicy, operation: str,
                 requester: Certificate, change_digest: bytes = b"") -> None:
        if policy.board is None:
            return
        if self.board_evaluator is None:
            raise PolicyError(
                f"policy {policy.name!r} has a board but this instance has "
                f"no board evaluator configured")
        request = AccessRequest(
            policy_name=policy.name, operation=operation,
            requester_fingerprint=requester.fingerprint(),
            change_digest=change_digest,
            nonce=self._rng.bytes(16))
        with self.telemetry.span("board.round", policy=policy.name,
                                 operation=operation):
            outcome = self.board_evaluator.evaluate_local(policy.board,
                                                          request)
            try:
                BoardEvaluator.enforce(policy.board, request, outcome)
            except PolicyError as exc:
                self.telemetry.inc("palaemon_board_rounds_total",
                                   decision="denied")
                self.telemetry.audit(
                    "board.round", policy=policy.name, operation=operation,
                    decision="denied", reason=type(exc).__name__,
                    approvals=len(outcome.approvals),
                    rejections=len(outcome.rejections),
                    invalid=len(outcome.invalid),
                    unreachable=len(outcome.unreachable))
                raise
        self.telemetry.inc("palaemon_board_rounds_total", decision="approved")
        self.telemetry.audit(
            "board.round", policy=policy.name, operation=operation,
            decision="approved", approvals=len(outcome.approvals),
            rejections=len(outcome.rejections),
            invalid=len(outcome.invalid),
            unreachable=len(outcome.unreachable))

    # -- policy CRUD (§III-C, §IV-E) ------------------------------------------

    def create_policy(self, policy: SecurityPolicy,
                      client_certificate: Certificate,
                      analyze: bool = False) -> None:
        """Create a policy; the new policy's own board must approve (§III-C).

        The creating client's certificate is stored; all further accesses
        require the same certificate *and* board approval.

        With ``analyze=True`` the policy is linted against the instance's
        existing policy set *before* board submission; any CRITICAL
        finding (weak quorum, argv secret, debug environment, ...)
        rejects the creation outright, so board members never waste a
        round on a policy the analyzer already condemned.
        """
        self._check_serving()
        policy.validate()
        if (("policies", policy.name)) in self.store:
            raise PolicyExistsError(f"policy {policy.name!r} already exists")
        if analyze:
            self._analyze_policy(policy, operation="create")
        with self.telemetry.span("policy.create", policy=policy.name):
            self._create_policy(policy, client_certificate)
        self.telemetry.inc("palaemon_policy_ops_total", op="create")
        self.telemetry.audit(
            "policy.create", policy=policy.name,
            requester=client_certificate.fingerprint(),
            digest=_policy_digest(policy),
            services=len(policy.services), secrets=len(policy.secrets))

    def _create_policy(self, policy: SecurityPolicy,
                       client_certificate: Certificate) -> None:
        self._approve(policy, "create", client_certificate,
                      change_digest=_policy_digest(policy))
        secrets = materialize_all(policy.secrets, self._fresh_rng(),
                                  now=self.simulator.now)
        fs_keys = {service.name: self._fresh_rng().bytes(32)
                   for service in policy.services}
        volume_keys = {volume.name: self._fresh_rng().bytes(32)
                       for volume in policy.volumes}
        self.store.put("policies", policy.name, policy)
        self.store.put("owners", policy.name, client_certificate)
        self.store.put("secrets", policy.name, secrets)
        self.store.put("fs_keys", policy.name, fs_keys)
        self.store.put("volume_keys", policy.name, volume_keys)
        self.store.put("volume_tags", policy.name, {})
        self.store.put("state", policy.name,
                       {service.name: _ServiceState()
                        for service in policy.services})
        # Functional path: no simulated latency to coalesce, so this (like
        # every commit_instant below) flushes directly. Only update_tag runs
        # under the simulator and routes through the batched store.commit().
        self.store.commit_instant()

    def _analyze_policy(self, policy: SecurityPolicy,
                        operation: str) -> None:
        """The pre-board lint gate (docs/ANALYSIS.md).

        Runs the policy rules over the instance's policy set with the
        candidate included, counts every finding into telemetry, and
        rejects on CRITICAL — before any board member is contacted.
        """
        from repro.analysis.engine import Analyzer
        from repro.analysis.findings import Severity

        policies: Dict[str, SecurityPolicy] = {
            name: self.store.get("policies", name)
            for name in self.store.keys("policies")}
        policies[policy.name] = policy
        with self.telemetry.span("policy.analyze", policy=policy.name,
                                 operation=operation):
            findings = Analyzer().analyze_policy_set(policies)
        for finding in findings:
            self.telemetry.inc("palaemon_lint_findings_total",
                               code=finding.code,
                               severity=finding.severity.name.lower())
        critical = [finding for finding in findings
                    if finding.severity >= Severity.CRITICAL]
        self.telemetry.audit(
            "policy.analyze", policy=policy.name, operation=operation,
            findings=len(findings), critical=len(critical))
        if critical:
            summary = "; ".join(
                f"{finding.code} ({finding.subject}): {finding.message}"
                for finding in critical)
            raise PolicyValidationError(
                f"policy {policy.name!r} rejected by the analyzer before "
                f"board submission: {summary}")

    def _authorize(self, policy_name: str, operation: str,
                   client_certificate: Certificate,
                   change_digest: bytes = b"") -> SecurityPolicy:
        policy = self.store.get("policies", policy_name)
        if policy is None:
            raise PolicyNotFoundError(f"no policy named {policy_name!r}")
        owner: Certificate = self.store.get("owners", policy_name)
        if owner.fingerprint() != client_certificate.fingerprint():
            raise AccessDeniedError(
                f"certificate does not own policy {policy_name!r}")
        self._approve(policy, operation, client_certificate, change_digest)
        return policy

    def read_policy(self, policy_name: str,
                    client_certificate: Certificate) -> SecurityPolicy:
        self._check_serving()
        with self.telemetry.span("policy.read", policy=policy_name):
            policy = self._authorize(policy_name, "read", client_certificate)
        self.telemetry.inc("palaemon_policy_ops_total", op="read")
        self.telemetry.audit("policy.read", policy=policy_name,
                             requester=client_certificate.fingerprint())
        return policy

    def update_policy(self, updated: SecurityPolicy,
                      client_certificate: Certificate,
                      analyze: bool = False) -> None:
        """Replace a policy; new secrets are materialized, existing kept.

        ``analyze=True`` applies the same pre-board lint gate as
        :meth:`create_policy`, with the updated document standing in for
        the stored one.
        """
        self._check_serving()
        updated.validate()
        if analyze:
            self._analyze_policy(updated, operation="update")
        with self.telemetry.span("policy.update", policy=updated.name):
            self._update_policy(updated, client_certificate)
        self.telemetry.inc("palaemon_policy_ops_total", op="update")
        self.telemetry.audit(
            "policy.update", policy=updated.name,
            requester=client_certificate.fingerprint(),
            digest=_policy_digest(updated))

    def _update_policy(self, updated: SecurityPolicy,
                       client_certificate: Certificate) -> None:
        self._authorize(updated.name, "update", client_certificate,
                        change_digest=_policy_digest(updated))
        # Secrets the update drops are forgotten, so re-adding one later
        # materializes a fresh value.
        wanted = {spec.name for spec in updated.secrets}
        existing_secrets: Dict[str, SecretValue] = {
            name: value for name, value
            in self.store.get("secrets", updated.name).items()
            if name in wanted}
        new_specs = [spec for spec in updated.secrets
                     if spec.name not in existing_secrets]
        fresh = materialize_all(new_specs, self._fresh_rng(),
                                now=self.simulator.now)
        existing_secrets.update(fresh)
        state: Dict[str, _ServiceState] = self.store.get("state", updated.name)
        fs_keys: Dict[str, bytes] = self.store.get("fs_keys", updated.name)
        for service in updated.services:
            state.setdefault(service.name, _ServiceState())
            if service.name not in fs_keys:
                fs_keys[service.name] = self._fresh_rng().bytes(32)
        volume_keys: Dict[str, bytes] = self.store.get(
            "volume_keys", updated.name, default={})
        for volume in updated.volumes:
            if volume.name not in volume_keys:
                volume_keys[volume.name] = self._fresh_rng().bytes(32)
        # The dicts above were mutated in place; re-put them so the dirty
        # tracker reseals their segments on the next flush.
        self.store.put("secrets", updated.name, existing_secrets)
        self.store.put("state", updated.name, state)
        self.store.put("fs_keys", updated.name, fs_keys)
        self.store.put("volume_keys", updated.name, volume_keys)
        if self.store.get("volume_tags", updated.name) is None:
            self.store.put("volume_tags", updated.name, {})
        self.store.put("policies", updated.name, updated)
        self.store.commit_instant()

    def _fresh_rng(self) -> DeterministicRandom:
        """A child stream no earlier draw of this database has seen.

        The lifetime stream is keyed by the Fig 6 counter value and
        advances on every draw, so a deleted and re-created policy name
        (or a removed and re-added secret) never gets its old keys back,
        within a lifetime or after a clean restart.
        """
        assert self._key_rng is not None  # _check_serving() ran start()
        return DeterministicRandom(self._key_rng.bytes(32))

    def delete_policy(self, policy_name: str,
                      client_certificate: Certificate) -> None:
        self._check_serving()
        with self.telemetry.span("policy.delete", policy=policy_name):
            self._authorize(policy_name, "delete", client_certificate)
            for table in ("policies", "owners", "secrets", "fs_keys",
                          "volume_keys", "volume_tags", "state"):
                self.store.delete(table, policy_name)
            self.store.commit_instant()
        self.telemetry.inc("palaemon_policy_ops_total", op="delete")
        self.telemetry.audit("policy.delete", policy=policy_name,
                             requester=client_certificate.fingerprint())

    def list_policies(self) -> List[str]:
        return self.store.keys("policies")

    # -- attestation and configuration (§IV-A) -------------------------------

    def attest_application(self, evidence: AttestationEvidence) -> AppConfig:
        """Verify an application's evidence and hand over its configuration.

        Every verdict is audited: ``attest.accept`` with the attested
        identity, or ``attest.deny`` with the refusal reason.
        """
        with self.telemetry.span("app.attest", policy=evidence.policy_name,
                                 service=evidence.service_name):
            try:
                config = self._attest_application(evidence)
            except ReproError as exc:
                self.telemetry.inc("palaemon_attestations_total",
                                   result="deny")
                self.telemetry.audit(
                    "attest.deny", policy=evidence.policy_name,
                    service=evidence.service_name,
                    reason=type(exc).__name__, detail=str(exc))
                raise
        self.telemetry.inc("palaemon_attestations_total", result="accept")
        self.telemetry.audit(
            "attest.accept", policy=evidence.policy_name,
            service=evidence.service_name,
            mrenclave=evidence.quote.report.mrenclave)
        return config

    def _attest_application(self, evidence: AttestationEvidence) -> AppConfig:
        self._check_serving()
        policy = self.store.get("policies", evidence.policy_name)
        if policy is None:
            raise AttestationError(
                f"no policy named {evidence.policy_name!r}")
        service = verify_evidence(evidence, policy, self.platform_registry)
        self._check_combination(policy, service, evidence)
        state = self._service_state(policy.name, service.name)
        if service.strict_mode and not state.clean_exit:
            raise StrictModeError(
                f"service {service.name!r} exited uncleanly; strict mode "
                f"requires a board-approved policy update to restart")
        state.clean_exit = False  # session open; set true again on exit
        state.executions += 1
        self.store.touch("state")
        secrets = self._resolve_secrets(policy)
        secret_bytes = {name: value.value for name, value in secrets.items()}
        injected = {}
        from repro.fs.injection import inject_secrets
        for path, template in service.injection_files.items():
            injected[path] = inject_secrets(template, secret_bytes)
        environment = {
            key: self._substitute(value, secret_bytes)
            for key, value in service.environment.items()}
        command = [self._substitute(part, secret_bytes)
                   for part in service.command]
        fs_keys = self.store.get("fs_keys", policy.name)
        self.store.commit_instant()
        return AppConfig(
            command=command,
            environment=environment,
            fs_key=fs_keys[service.name],
            fs_tag=state.expected_tag,
            injected_files=injected,
            secrets=secret_bytes,
            strict_mode=service.strict_mode,
            volumes=self._resolve_volumes(policy),
        )

    def _resolve_volumes(self, policy: SecurityPolicy,
                         ) -> Dict[str, "VolumeGrant"]:
        """Local volumes plus imported ones the exporter permits."""
        grants: Dict[str, VolumeGrant] = {}
        local_keys = self.store.get("volume_keys", policy.name) or {}
        local_tags = self.store.get("volume_tags", policy.name) or {}
        for volume in policy.volumes:
            grants[volume.name] = VolumeGrant(
                key=local_keys[volume.name],
                expected_tag=local_tags.get(volume.name),
                path=volume.path,
                owner_policy=policy.name)
        for volume_import in policy.volume_imports:
            source: Optional[SecurityPolicy] = self.store.get(
                "policies", volume_import.from_policy)
            if source is None:
                raise PolicyError(
                    f"volume import references unknown policy "
                    f"{volume_import.from_policy!r}")
            if not source.exports_volume_to(volume_import.volume_name,
                                            policy.name):
                raise AccessDeniedError(
                    f"policy {volume_import.from_policy!r} does not export "
                    f"volume {volume_import.volume_name!r} to "
                    f"{policy.name!r}")
            source_keys = self.store.get("volume_keys",
                                         volume_import.from_policy)
            source_tags = self.store.get("volume_tags",
                                         volume_import.from_policy) or {}
            spec = source.volume(volume_import.volume_name)
            grants[volume_import.volume_name] = VolumeGrant(
                key=source_keys[volume_import.volume_name],
                expected_tag=source_tags.get(volume_import.volume_name),
                path=spec.path,
                owner_policy=volume_import.from_policy)
        return grants

    # -- per-volume tags (footnote 1: multiple tags per application) --------

    def update_volume_tag(self, policy_name: str, volume_name: str,
                          tag: bytes) -> None:
        """Record the expected tag of one encrypted volume."""
        self._check_serving()
        policy: Optional[SecurityPolicy] = self.store.get("policies",
                                                          policy_name)
        if policy is None:
            raise PolicyNotFoundError(f"no policy named {policy_name!r}")
        policy.volume(volume_name)  # raises if undeclared
        tags = self.store.get("volume_tags", policy_name)
        tags[volume_name] = tag
        self.store.touch("volume_tags")
        self.store.commit_instant()
        self.telemetry.inc("palaemon_volume_tag_updates_total")
        self.telemetry.audit("volume_tag.update", policy=policy_name,
                             volume=volume_name, tag=tag)

    def get_volume_tag(self, policy_name: str,
                       volume_name: str) -> Optional[bytes]:
        self._check_serving()
        tags = self.store.get("volume_tags", policy_name)
        if tags is None:
            raise PolicyNotFoundError(f"no policy named {policy_name!r}")
        return tags.get(volume_name)

    def _check_combination(self, policy: SecurityPolicy, service: ServiceSpec,
                           evidence: AttestationEvidence) -> None:
        """Enforce imported (MRE, tag) combination limits (§III-E)."""
        if not policy.permitted_combinations:
            return
        state = self._service_state(policy.name, service.name)
        tag = state.expected_tag or b""
        for mre, permitted_tag in policy.permitted_combinations:
            if mre == evidence.quote.report.mrenclave and (
                    permitted_tag == b"" or permitted_tag == tag):
                return
        raise AttestationError(
            "the (MRENCLAVE, tag) combination is not permitted by the "
            "intersected image/application policies")

    @staticmethod
    def _substitute(value: str, secrets: Dict[str, bytes]) -> str:
        from repro.fs.injection import inject_secrets
        return inject_secrets(value.encode(), secrets).decode(
            "utf-8", errors="replace")

    def _resolve_secrets(self, policy: SecurityPolicy,
                         ) -> Dict[str, SecretValue]:
        """Local secrets plus imports this policy is entitled to (§III-A g)."""
        resolved = dict(self.store.get("secrets", policy.name))
        for import_spec in policy.imports:
            source_policy: Optional[SecurityPolicy] = self.store.get(
                "policies", import_spec.from_policy)
            if source_policy is None:
                raise PolicyError(
                    f"import references unknown policy "
                    f"{import_spec.from_policy!r}")
            if not source_policy.exports_secret_to(import_spec.secret_name,
                                                   policy.name):
                raise AccessDeniedError(
                    f"policy {import_spec.from_policy!r} does not export "
                    f"{import_spec.secret_name!r} to {policy.name!r}")
            source_secrets = self.store.get("secrets",
                                            import_spec.from_policy)
            secret = source_secrets[import_spec.secret_name]
            resolved[import_spec.bound_name] = SecretValue(
                name=import_spec.bound_name, kind=secret.kind,
                value=secret.value, certificate=secret.certificate)
        self.telemetry.inc("palaemon_secret_accesses_total",
                           amount=len(resolved))
        self.telemetry.audit("secret.access", policy=policy.name,
                             count=len(resolved),
                             imported=len(policy.imports))
        return resolved

    # -- tag management (§III-D) ----------------------------------------------

    def _service_state(self, policy_name: str,
                       service_name: str) -> _ServiceState:
        states = self.store.get("state", policy_name)
        if states is None or service_name not in states:
            raise PolicyNotFoundError(
                f"no state for {policy_name!r}/{service_name!r}")
        return states[service_name]

    def update_tag_instant(self, policy_name: str, service_name: str,
                           tag: bytes, clean_exit: bool = False) -> None:
        """Record a new expected tag (functional path, no latency)."""
        self._check_serving()
        state = self._service_state(policy_name, service_name)
        state.expected_tag = tag
        if clean_exit:
            state.clean_exit = True
        self.store.touch("state")
        self.store.commit_instant()
        self.telemetry.inc("palaemon_tag_updates_total")
        self.telemetry.audit("tag.update", policy=policy_name,
                             service=service_name, tag=tag,
                             clean_exit=clean_exit)

    def update_tag(self, policy_name: str, service_name: str, tag: bytes,
                   clean_exit: bool = False) -> Generator[Event, Any, None]:
        """Record a new expected tag, paying the DB commit (Fig 11 left)."""
        self._check_serving()
        with self.telemetry.span("tag.update", policy=policy_name,
                                 service=service_name):
            started = self.simulator.now
            state = self._service_state(policy_name, service_name)
            state.expected_tag = tag
            if clean_exit:
                state.clean_exit = True
            self.store.touch("state")
            yield self.simulator.process(self.store.commit())
            self.telemetry.observe("palaemon_tag_update_seconds",
                                   self.simulator.now - started)
        self.telemetry.inc("palaemon_tag_updates_total")
        self.telemetry.audit("tag.update", policy=policy_name,
                             service=service_name, tag=tag,
                             clean_exit=clean_exit)

    def get_tag_instant(self, policy_name: str,
                        service_name: str) -> Optional[bytes]:
        self._check_serving()
        self.telemetry.inc("palaemon_tag_reads_total")
        return self._service_state(policy_name, service_name).expected_tag

    def get_tag(self, policy_name: str, service_name: str,
                ) -> Generator[Event, Any, Optional[bytes]]:
        """Read the expected tag (in-memory; no disk commit)."""
        from repro import calibration

        self._check_serving()
        yield self.simulator.timeout(calibration.TAG_READ_LATENCY_SECONDS
                                     - calibration.TLS_RECORD_CRYPTO_SECONDS)
        self.telemetry.inc("palaemon_tag_reads_total")
        return self._service_state(policy_name, service_name).expected_tag

    def execution_count(self, policy_name: str, service_name: str) -> int:
        """How many times a service was attested (the ML metering use case)."""
        return self._service_state(policy_name, service_name).executions


def _policy_digest(policy: SecurityPolicy) -> bytes:
    """SHA-256 over a canonical JSON encoding of the whole policy document,
    so a board approval covers every field. Board members appear by
    certificate fingerprint, and explicit secret values are left out
    because the digest is written to the audit log."""
    document, certificates = policy.to_dict()
    for secret in document.get("secrets", []):
        secret.pop("value", None)
    for member in document.get("board", {}).get("members", []):
        member["certificate"] = (
            certificates[member["certificate"]].fingerprint().hex())
    return sha256(json.dumps(document, sort_keys=True,
                             separators=(",", ":")).encode())


_IDENTITY_PATH = "/palaemon.identity"


def _read_sealed_identity(store: BlockStore) -> Optional[SealedBlob]:
    if not store.exists(_IDENTITY_PATH):
        return None
    return SealedBlob(label=PalaemonService.IDENTITY_SEAL_LABEL,
                      ciphertext=store.read(_IDENTITY_PATH))


def _write_sealed_identity(store: BlockStore, blob: SealedBlob) -> None:
    store.write(_IDENTITY_PATH, blob.ciphertext)


def _encode_identity(identity: KeyPair, db_key: bytes) -> bytes:
    import pickle

    return pickle.dumps((identity, db_key))


def _decode_identity(material: bytes) -> Tuple[KeyPair, bytes]:
    import pickle

    identity, db_key = pickle.loads(material)
    return identity, db_key
