"""Shared fixtures for PALAEMON core tests.

These build a complete functional deployment: a platform, an IAS, a CA, a
PALAEMON instance with a board evaluator, a client, and a sample application
image — the smallest assembly in which every §III/§IV protocol can run.
"""

import pytest

from repro.core.board import ApprovalService, BoardEvaluator
from repro.core.ca import PalaemonCA
from repro.core.client import PalaemonClient
from repro.core.federation import FederatedInstance
from repro.core.policy import (
    BoardSpec,
    PolicyBoardMember,
    SecurityPolicy,
    ServiceSpec,
)
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.crypto.certificates import self_signed_certificate
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair
from repro.fs.blockstore import BlockStore
from repro.sim.core import Simulator
from repro.sim.network import Network, Site
from repro.tee.ias import IntelAttestationService
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform


class Deployment:
    """A fully wired PALAEMON deployment for tests."""

    def __init__(self, seed: bytes = b"deployment",
                 board_members: int = 3, board_threshold: int = 2,
                 veto_members=()):
        self.rng = DeterministicRandom(seed)
        self.simulator = Simulator()
        self.platform = SGXPlatform(self.simulator, "node-1",
                                    self.rng.fork(b"platform"))
        self.ias = IntelAttestationService(self.simulator, Site.IAS_US,
                                           self.rng.fork(b"ias"))
        self.ias.register_platform(
            self.platform.quoting_enclave.attestation_public_key,
            self.platform.microcode.revision)

        # Board members with approval services.
        self.approval_services = {}
        self.member_keys = {}
        members = []
        for index in range(board_members):
            name = f"member-{index}"
            keys = KeyPair.generate(self.rng.fork(name.encode()), bits=512)
            self.member_keys[name] = keys
            certificate = self_signed_certificate(name, keys)
            endpoint = f"approval-{name}"
            self.approval_services[endpoint] = ApprovalService(
                self.simulator, name, keys)
            members.append(PolicyBoardMember(
                name=name, certificate=certificate,
                approval_endpoint=endpoint, veto=(name in veto_members)))
        self.board = BoardSpec(members=tuple(members),
                               threshold=board_threshold)
        self.evaluator = BoardEvaluator(self.simulator,
                                        self.approval_services)

        # The PALAEMON instance and its CA.
        self.volume = BlockStore("palaemon-volume")
        self.palaemon = PalaemonService(
            self.platform, self.volume, self.rng.fork(b"palaemon"),
            board_evaluator=self.evaluator)
        self.palaemon.platform_registry.enroll(
            self.platform.platform_id,
            self.platform.quoting_enclave.attestation_public_key)
        self.ca = PalaemonCA(self.platform, self.ias,
                             frozenset({self.palaemon.mrenclave}),
                             self.rng.fork(b"ca"))
        self.start_palaemon()
        self.palaemon.obtain_certificate(self.ca)

        # A client that has attested the instance.
        self.client = PalaemonClient("client-1", self.rng.fork(b"client"))
        self.client.attest_instance_via_ca(self.palaemon,
                                           self.ca.root_public_key,
                                           now=self.simulator.now)

        # A sample application.
        self.app_image = build_image("ml-engine", seed=b"v1")

    def start_palaemon(self):
        self.simulator.run_process(self.palaemon.start(),
                                   name="palaemon-start")

    def stop_palaemon(self):
        self.simulator.run_process(self.palaemon.shutdown(),
                                   name="palaemon-stop")

    def make_policy(self, name="ml_policy", service_name="ml_app",
                    strict_mode=False, with_board=True, image=None,
                    injection_files=None, secrets=None, imports=(),
                    platforms=None):
        image = image or self.app_image
        if secrets is None:
            secrets = [SecretSpec(name="API_KEY", kind=SecretKind.RANDOM,
                                  size=32)]
        return SecurityPolicy(
            name=name,
            services=[ServiceSpec(
                name=service_name,
                image_name=image.name,
                command=["python", "/app.py"],
                environment={"MODE": "production"},
                mrenclaves=[image.mrenclave()],
                platforms=(platforms if platforms is not None else []),
                injection_files=dict(injection_files or {}),
                strict_mode=strict_mode,
            )],
            secrets=list(secrets),
            imports=list(imports),
            board=self.board if with_board else None,
        )

    def evidence_for(self, policy_name, service_name="ml_app", image=None,
                     tls_keys=None, platform=None):
        """Produce attestation evidence as the SCONE runtime would (§IV-A)."""
        from repro.core.attestation import AttestationEvidence
        from repro.crypto.primitives import sha256

        platform = platform or self.platform
        image = image or self.app_image
        enclave = platform.launch_instant(image)
        tls_keys = tls_keys or KeyPair.generate(
            self.rng.fork(b"tls:" + policy_name.encode()), bits=512)
        quote = platform.quoting_enclave.quote(
            enclave, sha256(tls_keys.public.to_bytes()))
        return AttestationEvidence(quote=quote, policy_name=policy_name,
                                   service_name=service_name,
                                   tls_public_key=tls_keys.public)


def make_second_instance(deployment, name="palaemon-2"):
    """A second genuine PALAEMON on its own platform, CA-certified."""
    rng = DeterministicRandom(name.encode())
    platform = SGXPlatform(deployment.simulator, f"{name}-node",
                           rng.fork(b"platform"))
    deployment.ias.register_platform(
        platform.quoting_enclave.attestation_public_key,
        platform.microcode.revision)
    service = PalaemonService(platform, BlockStore(f"{name}-volume"),
                              rng.fork(b"service"), name=name,
                              board_evaluator=deployment.evaluator)
    service.platform_registry.enroll(
        platform.platform_id,
        platform.quoting_enclave.attestation_public_key)
    deployment.simulator.run_process(service.start())
    service.obtain_certificate(deployment.ca)
    return service


def make_networked_pair(deployment, remote_site=Site.SAME_DC):
    """Two CA-certified instances peered over the message fabric."""
    network = Network(deployment.simulator, deployment.rng.fork(b"fed-net"))
    local = FederatedInstance(
        deployment.palaemon, Site.SAME_RACK, deployment.ca.root_public_key,
        network=network, rng=deployment.rng.fork(b"fed-local"))
    remote_service = make_second_instance(deployment)
    remote = FederatedInstance(
        remote_service, remote_site, deployment.ca.root_public_key,
        network=network, rng=deployment.rng.fork(b"fed-remote"))
    deployment.simulator.run_process(local.peer_with(remote))
    return local, remote, remote_service


@pytest.fixture()
def deployment():
    return Deployment()
