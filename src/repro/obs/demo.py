"""The ``python -m repro observe`` workload.

Stands up one complete deployment — platform, board, CA, PALAEMON
instance, REST front-end over the simulated network — and drives a small
but representative workload across every instrumented path: policy CRUD
under quorum approval, application attestation (accepted and denied),
tag reads and updates (instant and disk-committed), volume tags, a
couple of failing REST calls, and a clean shutdown through the rollback
guard. It then renders the metrics snapshot, verifies the audit chain,
and summarizes the trace — the operator's-eye view the paper's Byzantine
-stakeholder argument needs to be observable at all.

Everything is seeded, so two runs with the same seed print identical
output (including every span timestamp).
"""

from __future__ import annotations

from repro.core.board import ApprovalService, BoardEvaluator
from repro.core.ca import PalaemonCA
from repro.core.client import PalaemonClient
from repro.core.policy import (
    BoardSpec,
    PolicyBoardMember,
    SecurityPolicy,
    ServiceSpec,
    VolumeSpec,
)
from repro.core.rest import PalaemonRestClient, PalaemonRestServer
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.crypto.certificates import self_signed_certificate
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.signatures import KeyPair
from repro.errors import IntegrityError, ReproError
from repro.fs.blockstore import BlockStore
from repro.sim.core import Simulator
from repro.sim.network import Network, Site
from repro.tee.ias import IntelAttestationService
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform


def run_observe_workload(seed: bytes = b"observe") -> PalaemonService:
    """Run the demo workload; returns the (stopped) instrumented service."""
    rng = DeterministicRandom(seed)
    simulator = Simulator()
    platform = SGXPlatform(simulator, "observe-node", rng.fork(b"platform"))
    ias = IntelAttestationService(simulator, Site.IAS_US, rng.fork(b"ias"))
    ias.register_platform(platform.quoting_enclave.attestation_public_key,
                          platform.microcode.revision)

    # A three-member board, threshold two.
    approval_services = {}
    members = []
    for index in range(3):
        name = f"member-{index}"
        keys = KeyPair.generate(rng.fork(name.encode()), bits=512)
        endpoint = f"approval-{name}"
        approval_services[endpoint] = ApprovalService(simulator, name, keys)
        members.append(PolicyBoardMember(
            name=name, certificate=self_signed_certificate(name, keys),
            approval_endpoint=endpoint))
    board = BoardSpec(members=tuple(members), threshold=2)
    evaluator = BoardEvaluator(simulator, approval_services)

    service = PalaemonService(platform, BlockStore("observe-volume"),
                              rng.fork(b"palaemon"),
                              board_evaluator=evaluator,
                              name="palaemon-observe")
    service.platform_registry.enroll(
        platform.platform_id,
        platform.quoting_enclave.attestation_public_key)
    ca = PalaemonCA(platform, ias, frozenset({service.mrenclave}),
                    rng.fork(b"ca"))
    simulator.run_process(service.start(), name="observe-start")
    service.obtain_certificate(ca)

    client = PalaemonClient("observe-client", rng.fork(b"client"))
    client.attest_instance_via_ca(service, ca.root_public_key,
                                  now=simulator.now)

    # The REST front-end, reached over the simulated network.
    network = Network(simulator, rng.fork(b"network"))
    server = PalaemonRestServer(service, network)
    rest = simulator.run_process(
        PalaemonRestClient.connect(network, client, server, Site.SAME_DC,
                                   rng.fork(b"rest"),
                                   trusted_root=ca.root_public_key),
        name="observe-connect")
    rest.telemetry = service.telemetry

    app_image = build_image("observe-app", seed=b"v1")
    policy = SecurityPolicy(
        name="observe_policy",
        services=[ServiceSpec(
            name="app",
            image_name=app_image.name,
            command=["python", "/app.py"],
            environment={"MODE": "observe"},
            mrenclaves=[app_image.mrenclave()],
        )],
        secrets=[SecretSpec(name="API_KEY", kind=SecretKind.RANDOM,
                            size=32)],
        volumes=[VolumeSpec(name="data", path="/data")],
        board=board,
    )

    def evidence():
        enclave = platform.launch_instant(app_image)
        tls_keys = KeyPair.generate(rng.fork(b"app-tls"), bits=512)
        quote = platform.quoting_enclave.quote(
            enclave, sha256(tls_keys.public.to_bytes()))
        from repro.core.attestation import AttestationEvidence

        return AttestationEvidence(quote=quote, policy_name="observe_policy",
                                   service_name="app",
                                   tls_public_key=tls_keys.public)

    def workload():
        # Policy CRUD under board approval.
        yield simulator.process(rest.call("policy.create", policy=policy))
        yield simulator.process(rest.call("policy.read",
                                          name="observe_policy"))
        yield simulator.process(rest.call("policy.list"))
        yield simulator.process(rest.call("policy.update", policy=policy))
        # Attestation: one accepted, one denied (unknown policy).
        yield simulator.process(rest.call("app.attest", evidence=evidence()))
        try:
            bogus = evidence()
            bogus = type(bogus)(quote=bogus.quote, policy_name="ghost",
                                service_name="app",
                                tls_public_key=bogus.tls_public_key)
            yield simulator.process(rest.call("app.attest", evidence=bogus))
        except ReproError:
            pass
        # Tag traffic: instant over REST, then the disk-committed path.
        for round_number in range(3):
            tag = sha256(b"fs-state", bytes([round_number]))
            yield simulator.process(rest.call(
                "tag.update", policy="observe_policy", service="app",
                tag=tag))
            yield simulator.process(rest.call(
                "tag.get", policy="observe_policy", service="app"))
        yield simulator.process(service.update_tag(
            "observe_policy", "app", sha256(b"fs-state-final"),
            clean_exit=True))
        # Volume tags.
        yield simulator.process(rest.call(
            "volume_tag.update", policy="observe_policy", volume="data",
            tag=sha256(b"volume-state")))
        yield simulator.process(rest.call(
            "volume_tag.get", policy="observe_policy", volume="data"))
        # Failing requests: a policy that does not exist, a bogus route.
        try:
            yield simulator.process(rest.call("tag.get", policy="ghost",
                                              service="app"))
        except ReproError:
            pass
        try:
            yield simulator.process(rest.call("no.such.route"))
        except ReproError:
            pass

    simulator.run_process(workload(), name="observe-workload")
    simulator.run_process(service.shutdown(), name="observe-stop")
    server.stop()
    simulator.run()
    return service


def print_observe_report(service: PalaemonService) -> bool:
    """Render the snapshot + audit verdict; returns chain validity."""
    telemetry = service.telemetry
    print(f"# instance {service.name}: metrics snapshot "
          f"(virtual time {telemetry.now:.6f}s)")
    print(telemetry.snapshot_text().rstrip("\n"))
    print("")
    spans = telemetry.tracer.finished
    print(f"# trace: {len(spans)} finished spans, "
          f"{len(set(s.name for s in spans))} distinct operations")
    print(f"# audit log: {len(telemetry.audit_log)} records, "
          f"head {telemetry.audit_log.head().hex()[:16]}...")
    try:
        verified = telemetry.verify_audit_chain()
    except IntegrityError as exc:
        print(f"# audit chain: INVALID ({exc})")
        return False
    print(f"# audit chain: valid ({verified} records verified)")
    return True
