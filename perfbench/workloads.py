"""The benchmark's workloads: ``startup``, ``tag-churn`` and ``governance``.

Each workload builds a deployment from its seed, seeds the database, warms
up, and then runs closed-loop clients. A client is a simulator process,
never a host thread: the whole benchmark runs on one host thread, and a
client sends its next request only when the previous one has returned.

Every workload talks to PALAEMON over REST (TLS front-end, dispatcher,
service), records one row per op, and checks the program's outputs after
the timed phase (:meth:`Workload.check`).
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.benchlib.tagbench import build_service
from repro.core.attestation import AttestationEvidence
from repro.core.board import ApprovalService, BoardEvaluator
from repro.core.ca import PalaemonCA
from repro.core.client import PalaemonClient
from repro.core.policy import (
    BoardSpec,
    ImportSpec,
    PolicyBoardMember,
    SecurityPolicy,
    ServiceSpec,
)
from repro.core.rest import PalaemonRestClient, PalaemonRestServer
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.crypto.certificates import self_signed_certificate
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.signatures import KeyPair
from repro.errors import ReproError
from repro.fs.blockstore import BlockStore
from repro.fs.shield import ProtectedFileSystem
from repro.obs.telemetry import Telemetry
from repro.sim.core import Event, Simulator
from repro.sim.network import Network, Site
from repro.tee.ias import IntelAttestationService
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform
from speedometer import Speedometer

perf_counter = time.perf_counter

#: One row per op: (start, end on :meth:`Speedometer.clock`, virtual
#: seconds, ok, kind, database bytes written so far, traced).
OpRecord = Tuple[float, float, float, bool, str, int, bool]


class CheckFailed(Exception):
    """An output of the program is not what the workload expects."""


class Workload:
    """Shared parts: set-up, warm-up, closed-loop clients, checks."""

    name = ""
    #: Concurrent simulated clients.
    clients = 1
    #: The tail percentile reported as ``op_tail_ms``.
    tail_percentile = 90
    #: Per size: workload parameters (``full`` is what the benchmark runs).
    sizes: Dict[str, Dict[str, int]] = {}

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.size = dict(self.sizes[size])
        self.rng = DeterministicRandom(
            f"perfbench:{self.name}:{seed}".encode())
        self.records: List[OpRecord] = []
        self.failures: List[str] = []
        #: Bytes of values the ops asked PALAEMON to store.
        self.user_bytes = 0
        #: Set by the runner while the host tracer is installed.
        self.traced = False
        self.warmup_windows: List[float] = []
        self.speedometer = Speedometer()
        self.simulator: Simulator
        self.service: PalaemonService
        self.network: Network

    # -- subclass hooks -------------------------------------------------------

    def build(self) -> None:
        """Build the deployment and seed the database."""
        raise NotImplementedError

    def op(self, client: int) -> Generator[Event, Any, str]:
        """One op of ``client``; returns the op kind."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Check the program's outputs after the timed phase."""
        raise NotImplementedError

    # -- running ops ----------------------------------------------------------

    @property
    def db_bytes(self) -> int:
        """Bytes PALAEMON has written to its untrusted volume so far."""
        return self.service.store.store.bytes_written

    def setup(self) -> None:
        """Build, seed, and warm up until per-op write sizes level off.

        Warm-up runs windows of ops and stops once the database bytes
        written per op change by less than 5% between two windows.
        """
        self.build()
        window = self.size["warmup_window"]
        previous = None
        for _ in range(self.size["warmup_windows"]):
            before = self.db_bytes
            self.run_ops(window)
            per_op = (self.db_bytes - before) / window
            self.warmup_windows.append(per_op)
            if previous and abs(per_op - previous) <= 0.05 * previous:
                break
            previous = per_op
        self.records.clear()
        self.user_bytes = 0

    def run_ops(self, count: int) -> None:
        """Run exactly ``count`` ops, split evenly over the clients."""
        done = [0] * self.clients
        share = [count // self.clients + (1 if index < count % self.clients
                                          else 0)
                 for index in range(self.clients)]

        def more(client: int) -> bool:
            if done[client] >= share[client]:
                return False
            done[client] += 1
            return True

        self._run_clients(more)

    def run_for(self, seconds: float) -> None:
        """Run ops until ``seconds`` of host time have passed."""
        deadline = perf_counter() + seconds
        self._run_clients(lambda _client: perf_counter() < deadline)

    def _run_clients(self, more: Callable[[int], bool]) -> None:
        simulator = self.simulator
        records = self.records
        meter = self.speedometer
        clock = meter.clock

        def client(index: int) -> Generator[Event, Any, None]:
            while more(index):
                # One speed sample per round of ops, kept out of traces.
                if index == 0 and not self.traced:
                    meter.sample()
                virtual_start = simulator.now
                host_start = clock()
                try:
                    kind = yield from self.op(index)
                    ok = True
                except (ReproError, CheckFailed) as exc:
                    kind, ok = "failed", False
                    self.failures.append(f"{type(exc).__name__}: {exc}")
                records.append((host_start, clock(),
                                simulator.now - virtual_start, ok, kind,
                                self.db_bytes, self.traced))

        def main() -> Generator[Event, Any, None]:
            yield simulator.all_of([
                simulator.process(client(index), name=f"client-{index}")
                for index in range(self.clients)])

        simulator.run_process(main(), name=f"{self.name}-clients")

    # -- shared helpers -------------------------------------------------------

    def _certify(self, platform: SGXPlatform, rng: DeterministicRandom,
                 ) -> None:
        """Give the instance a CA certificate and a REST front-end."""
        self.ias = IntelAttestationService(self.simulator, Site.IAS_US,
                                           rng.fork(b"ias"))
        self.ias.register_platform(
            platform.quoting_enclave.attestation_public_key,
            platform.microcode.revision)
        self.ca = PalaemonCA(platform, self.ias,
                             frozenset({self.service.mrenclave}),
                             rng.fork(b"ca"))
        self.service.obtain_certificate(self.ca)
        # No network jitter: an op's host latency is the host work done
        # between its first and last event, and with jitter the order in
        # which the clients' events interleave would depend on the seed.
        self.network = Network(self.simulator, rng.fork(b"network"),
                               jitter_fraction=0.0)
        self.server = PalaemonRestServer(self.service, self.network)

    def _deploy(self, rng: DeterministicRandom,
                evaluator: Optional[BoardEvaluator] = None) -> None:
        """A platform, a started PALAEMON instance, its CA and REST server,
        all on ``self.simulator``."""
        self.platform = SGXPlatform(self.simulator, "bench-node",
                                    rng.fork(b"platform"))
        self.service = PalaemonService(
            self.platform, BlockStore("palaemon-volume"),
            rng.fork(b"palaemon"), board_evaluator=evaluator,
            telemetry=Telemetry.for_simulator(self.simulator))
        self.service.platform_registry.enroll(
            self.platform.platform_id,
            self.platform.quoting_enclave.attestation_public_key)
        self.simulator.run_process(self.service.start(), name="start")
        self._certify(self.platform, rng)

    def _connect(self, client: PalaemonClient, rng: DeterministicRandom,
                 ) -> Generator[Event, Any, PalaemonRestClient]:
        """A REST connection that verifies the instance's CA certificate."""
        connection = yield from PalaemonRestClient.connect(
            self.network, client, self.server, Site.SAME_DC, rng,
            trusted_root=self.ca.root_public_key)
        return connection

    def connect(self, client: PalaemonClient, rng: DeterministicRandom,
                ) -> PalaemonRestClient:
        return self.simulator.run_process(self._connect(client, rng),
                                          name="connect")

    def call(self, connection: PalaemonRestClient, route: str,
             **fields) -> Any:
        """One REST call outside the timed phase (set-up and checks)."""
        def request() -> Generator[Event, Any, Any]:
            reply = yield from connection.call(route, **fields)
            return reply
        return self.simulator.run_process(request(), name=route)


# -- startup ------------------------------------------------------------------

class Startup(Workload):
    """Application starts: attest over REST, get config, remount, push tag."""

    name = "startup"
    clients = 1
    tail_percentile = 90
    sizes = {
        "full": {"policies": 100, "importers": 25, "files": 4,
                 "file_bytes": 4096, "warmup_window": 10,
                 "warmup_windows": 3},
        "tiny": {"policies": 8, "importers": 2, "files": 4,
                 "file_bytes": 4096, "warmup_window": 4,
                 "warmup_windows": 2},
    }
    SERVICE = "app"
    TEMPLATE_PATH = "/etc/app/app.conf"

    def build(self) -> None:
        rng = self.rng
        self.simulator = Simulator()
        self._deploy(rng.fork(b"deployment"))
        self.app_image = build_image("bench-app", seed=b"bench-app-v1")
        self.runtime = PalaemonClient("app-runtime", rng.fork(b"runtime"))
        count = self.size["policies"]
        self.names = [f"startup-{index:03d}" for index in range(count)]
        shared, others = self.names[0], list(self.names[1:])
        rng.fork(b"importers").shuffle(others)
        importers = sorted(others[:self.size["importers"]])
        owner = self.runtime.certificate
        for name in self.names:
            self.service.create_policy(
                self._policy(name, shared, importers), owner)
        self.shared_value = self.service.store.get(
            "secrets", shared)["API_KEY"].value
        self.secret_names = {
            name: {"API_KEY", "DB_PASSWORD"}
            | ({"SHARED_TOKEN"} if name in importers else set())
            for name in self.names}
        self.volumes = {name: BlockStore(f"{name}-volume")
                        for name in self.names}
        payload_rng = rng.fork(b"payloads")
        self.payloads = [payload_rng.bytes(self.size["file_bytes"])
                         for _ in range(8)]
        self.schedule = rng.fork(b"schedule")
        self.expected_tags: Dict[str, bytes] = {}
        self.starts = 0
        self._seed_volumes()

    def _policy(self, name: str, shared: str,
                importers: List[str]) -> SecurityPolicy:
        template = (b"# generated at start-up\n"
                    b"api_key = $$PALAEMON$API_KEY$$\n"
                    b"db_password = $$PALAEMON$DB_PASSWORD$$\n")
        imports = []
        if name in importers:
            template += b"shared_token = $$PALAEMON$SHARED_TOKEN$$\n"
            imports.append(ImportSpec(from_policy=shared,
                                      secret_name="API_KEY",
                                      local_name="SHARED_TOKEN"))
        export_to = tuple(importers) if name == shared else ()
        return SecurityPolicy(
            name=name,
            services=[ServiceSpec(
                name=self.SERVICE, image_name=self.app_image.name,
                command=["app", "--serve"],
                environment={"MODE": "production"},
                mrenclaves=[self.app_image.mrenclave()],
                injection_files={self.TEMPLATE_PATH: template})],
            secrets=[SecretSpec(name="API_KEY", kind=SecretKind.RANDOM,
                                size=32, export_to=export_to),
                     SecretSpec(name="DB_PASSWORD", kind=SecretKind.RANDOM,
                                size=24)],
            imports=imports)

    def _seed_volumes(self) -> None:
        """Start every application once, in-process and with one shared
        TLS key, so every timed start is a restart that remounts a volume
        and verifies its tag."""
        keys = KeyPair.generate(self.rng.fork(b"seed-key"), bits=512)
        binding = sha256(keys.public.to_bytes())
        for name in self.names:
            enclave = self.platform.launch_instant(self.app_image)
            config = self.service.attest_application(AttestationEvidence(
                quote=self.platform.quoting_enclave.quote(enclave, binding),
                policy_name=name, service_name=self.SERVICE,
                tls_public_key=keys.public))
            tag = self._write_volume(name, config,
                                     self.rng.fork(b"seed:" + name.encode()))
            self.service.update_tag_instant(name, self.SERVICE, tag,
                                            clean_exit=True)
            self.expected_tags[name] = tag

    def _write_volume(self, name: str, config,
                      rng: DeterministicRandom) -> bytes:
        """Remount the app's volume, verify it, overwrite files, sync."""
        fs = ProtectedFileSystem(self.volumes[name], config.fs_key, rng)
        if config.fs_tag is not None:
            fs.verify_tag(config.fs_tag)
        for part in range(self.size["files"]):
            fs.write(f"/data/part-{part}",
                     self.payloads[(self.starts + part) % len(self.payloads)])
        return fs.sync()

    def _next_policy(self) -> str:
        return self.names[self.schedule.randint(0, len(self.names) - 1)]

    def op(self, client: int) -> Generator[Event, Any, str]:
        number = self.starts
        self.starts += 1
        name = self._next_policy()
        rng = self.rng.fork(b"start:%d" % number)
        # 1. the app side: enclave, fresh TLS key pair, quote binding it.
        enclave = self.platform.launch_instant(self.app_image)
        keys = KeyPair.generate(rng.fork(b"tls-key"), bits=512)
        quote = self.platform.quoting_enclave.quote(
            enclave, sha256(keys.public.to_bytes()))
        evidence = AttestationEvidence(
            quote=quote, policy_name=name, service_name=self.SERVICE,
            tls_public_key=keys.public)
        # 2. a new verified connection, then attestation.
        connection = yield from self._connect(self.runtime,
                                              rng.fork(b"conn"))
        config = yield from connection.call("app.attest", evidence=evidence)
        # 3. the configuration must be complete.
        self._check_config(name, config)
        # 4. remount the app's own volume, verify, overwrite, sync.
        tag = self._write_volume(name, config, rng.fork(b"fs"))
        # 5. push the tag with a clean exit.
        yield from connection.call("tag.update", policy=name,
                                   service=self.SERVICE, tag=tag,
                                   clean_exit=True)
        self.expected_tags[name] = tag
        self.user_bytes += len(tag)
        return "start"

    def _check_config(self, name: str, config) -> None:
        if set(config.secrets) != self.secret_names[name]:
            raise CheckFailed(f"{name}: secrets {sorted(config.secrets)}")
        if config.fs_tag != self.expected_tags.get(name):
            raise CheckFailed(f"{name}: config carries a stale tag")
        shared = config.secrets.get("SHARED_TOKEN")
        if shared is not None and shared != self.shared_value:
            raise CheckFailed(f"{name}: imported secret differs")
        content = config.injected_files.get(self.TEMPLATE_PATH)
        if content is None or b"$$PALAEMON$" in content:
            raise CheckFailed(f"{name}: secrets not injected")
        for value in config.secrets.values():
            if value not in content:
                raise CheckFailed(f"{name}: a secret is missing from "
                                  f"{self.TEMPLATE_PATH}")

    def check(self) -> List[str]:
        problems = []
        connection = self.connect(self.runtime, self.rng.fork(b"checker"))
        for name, tag in sorted(self.expected_tags.items()):
            stored = self.call(connection, "tag.get", policy=name,
                               service=self.SERVICE)
            if stored != tag:
                problems.append(f"{name}: pushed tag does not read back")
        return problems


# -- tag-churn ----------------------------------------------------------------

class _App:
    """One simulated application of ``tag-churn``."""

    def __init__(self, connection: PalaemonRestClient, names: List[str],
                 rng: DeterministicRandom) -> None:
        self.connection = connection
        self.names = names
        self.rng = rng
        self.sent = 0


class TagChurn(Workload):
    """Tag pushes and reads from eight apps against 1,000 policies."""

    name = "tag-churn"
    clients = 8
    tail_percentile = 99
    sizes = {
        "full": {"policies": 1000, "warmup_window": 160,
                 "warmup_windows": 4},
        "tiny": {"policies": 40, "warmup_window": 16, "warmup_windows": 2},
    }
    SERVICE = "svc"

    def build(self) -> None:
        rng = self.rng
        self.simulator, self.service = build_service(
            "palaemon-churn", b"perfbench:tag-churn:%d" % self.seed,
            self.size["policies"])
        self._certify(self.service.platform, rng.fork(b"deployment"))
        self.names = self.service.store.keys("policies")
        self.tag_seed = rng.fork(b"tags").bytes(32)
        # Set every policy's tag, so the state segment has its final size
        # before any op is timed.
        self.expected: Dict[str, bytes] = {}
        for name in self.names:
            tag = sha256(self.tag_seed, name.encode())
            self.service.store.get("state", name)[self.SERVICE] \
                .expected_tag = tag
            self.expected[name] = tag
        self.service.store.touch("state")
        self.service.store.commit_instant()
        self.apps = []
        for index in range(self.clients):
            identity = PalaemonClient(f"app-{index}",
                                      rng.fork(b"app:%d" % index))
            connection = self.connect(identity,
                                      rng.fork(b"conn:%d" % index))
            self.apps.append(_App(connection, self.names[index::self.clients],
                                  rng.fork(b"pick:%d" % index)))

    def op(self, client: int) -> Generator[Event, Any, str]:
        app = self.apps[client]
        number = app.sent
        app.sent += 1
        name = app.names[app.rng.randint(0, len(app.names) - 1)]
        # Each app sends 3 tag.update per tag.get; the apps are out of
        # phase, so every round of eight requests holds two reads.
        if (number + client) % 4 == 3:
            tag = yield from app.connection.call(
                "tag.get", policy=name, service=self.SERVICE)
            if tag != self.expected[name]:
                raise CheckFailed(f"{name}: tag.get returned a stale tag")
            return "tag.get"
        tag = sha256(self.tag_seed, b"%d:%d" % (client, number))
        yield from app.connection.call("tag.update", policy=name,
                                       service=self.SERVICE, tag=tag)
        self.expected[name] = tag
        self.user_bytes += len(tag)
        return "tag.update"

    def check(self) -> List[str]:
        problems = []
        connection = self.apps[0].connection
        for name in self.names:
            stored = self.call(connection, "tag.get", policy=name,
                               service=self.SERVICE)
            if stored != self.expected[name]:
                problems.append(f"{name}: tag.get differs from the last "
                                f"tag written")
        # Durability: shut down, start a new instance on the same volume.
        self.server.stop()
        self.simulator.run_process(self.service.shutdown(), name="shutdown")
        restarted = PalaemonService(
            self.service.platform, self.service.store.store,
            self.rng.fork(b"restart"), name=self.service.name,
            telemetry=Telemetry.for_simulator(self.simulator))
        self.simulator.run_process(restarted.start(), name="restart")
        for name in self.names:
            if restarted.get_tag_instant(name, self.SERVICE) \
                    != self.expected[name]:
                problems.append(f"{name}: tag lost across a restart")
        return problems


# -- governance ---------------------------------------------------------------

class Governance(Workload):
    """Board-approved policy lifecycles: create, read, update, delete."""

    name = "governance"
    clients = 1
    tail_percentile = 90
    sizes = {
        "full": {"policies": 200, "members": 5, "threshold": 3,
                 "warmup_window": 5, "warmup_windows": 4},
        "tiny": {"policies": 6, "members": 5, "threshold": 3,
                 "warmup_window": 2, "warmup_windows": 2},
    }
    SERVICE = "worker"

    def build(self) -> None:
        rng = self.rng
        simulator = self.simulator = Simulator()
        approval_services: Dict[str, ApprovalService] = {}
        members = []
        for index in range(self.size["members"]):
            member = f"member-{index}"
            keys = KeyPair.generate(rng.fork(member.encode()))
            endpoint = f"approval-{member}"
            approval_services[endpoint] = ApprovalService(
                simulator, member, keys)
            members.append(PolicyBoardMember(
                name=member, certificate=self_signed_certificate(member,
                                                                 keys),
                approval_endpoint=endpoint))
        self.board = BoardSpec(members=tuple(members),
                               threshold=self.size["threshold"])
        self._deploy(rng.fork(b"deployment"),
                     BoardEvaluator(simulator, approval_services))
        self.app_image = build_image("bench-worker", seed=b"bench-worker-v1")
        self.owner = PalaemonClient("governance-owner", rng.fork(b"owner"))
        self.seeded = [f"gov-{index:04d}"
                       for index in range(self.size["policies"])]
        for name in self.seeded:
            self.service.create_policy(self._policy(name, revision=1),
                                       self.owner.certificate)
        self.connection = self.connect(self.owner, rng.fork(b"conn"))
        self.lifecycles = 0

    def _policy(self, name: str, revision: int) -> SecurityPolicy:
        secrets = [SecretSpec(name="API_KEY", kind=SecretKind.RANDOM),
                   SecretSpec(name="DB_PASSWORD", kind=SecretKind.RANDOM,
                              size=24)]
        if revision > 1:
            secrets.append(SecretSpec(name="ROTATED_KEY",
                                      kind=SecretKind.RANDOM))
        return SecurityPolicy(
            name=name,
            services=[ServiceSpec(
                name=self.SERVICE, image_name=self.app_image.name,
                command=["worker", "--queue", name],
                environment={"REVISION": str(revision)},
                mrenclaves=[self.app_image.mrenclave()])],
            secrets=secrets,
            board=self.board)

    def op(self, client: int) -> Generator[Event, Any, str]:
        name = f"gov-op-{self.lifecycles:06d}"
        self.lifecycles += 1
        created = self._policy(name, revision=1)
        updated = self._policy(name, revision=2)
        call = self.connection.call
        reply = yield from call("policy.create", policy=created)
        if reply != {"created": name}:
            raise CheckFailed(f"{name}: create replied {reply!r}")
        fetched = yield from call("policy.read", name=name)
        if fetched.name != name or fetched.board != self.board:
            raise CheckFailed(f"{name}: read returned another policy")
        reply = yield from call("policy.update", policy=updated)
        if reply != {"updated": name}:
            raise CheckFailed(f"{name}: update replied {reply!r}")
        reply = yield from call("policy.delete", name=name)
        if reply != {"deleted": name}:
            raise CheckFailed(f"{name}: delete replied {reply!r}")
        self.user_bytes += (len(pickle.dumps(created))
                            + len(pickle.dumps(updated)))
        return "lifecycle"

    def check(self) -> List[str]:
        problems = []
        listed = self.call(self.connection, "policy.list")
        if listed != sorted(self.seeded):
            problems.append(f"policy.list has {len(listed)} names, not the "
                            f"{len(self.seeded)} seeded")
        try:
            self.service.telemetry.verify_audit_chain()
        except ReproError as exc:
            problems.append(f"audit chain: {exc}")
        return problems


WORKLOADS = {workload.name: workload
             for workload in (Startup, TagChurn, Governance)}
