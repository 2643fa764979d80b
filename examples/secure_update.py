#!/usr/bin/env python3
"""Secure updates under a Byzantine policy board (SS III-C / SS III-E).

Scenario: a three-member board (developer, auditor, data provider with
veto rights) governs an application policy. The auditor is a person, so
their approval service also asks for the code on their device (two-factor
approval, SS III-C). The example walks through:

1. a legitimate update while the data provider is offline: the auditor's
   vote counts only with the device code; then f+1 approvals, rollout;
2. a malicious insider pushing a backdoored build: one Byzantine approval
   is not enough, the update dies at the board;
3. the data provider exercising its veto;
4. an image provider revoking a vulnerable release, which automatically
   disables it in the application policy: only combinations that both the
   image provider and the application allow may run (the intersection
   rule);
5. a board-approved update of the PALAEMON CA itself.

Run:  python examples/secure_update.py
"""

from repro.core.board import (
    AccessRequest,
    ApprovalService,
    BoardEvaluator,
    TwoFactorApprovalService,
)
from repro.core.ca import PalaemonCA
from repro.core.client import PalaemonClient
from repro.core.policy import SecurityPolicy, ServiceSpec, VolumeSpec
from repro.core.service import PalaemonService, build_palaemon_image
from repro.core.update import (
    CAUpdateCoordinator,
    ImagePolicyExport,
    ImageRelease,
    apply_image_export,
    prepare_application_update,
)
from repro.crypto.certificates import self_signed_certificate
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair
from repro.errors import (
    ApprovalDeniedError,
    AttestationError,
    MrenclaveNotPermittedError,
    VetoError,
)
from repro.fs.blockstore import BlockStore
from repro.runtime.scone import SconeRuntime
from repro.sim.core import Simulator
from repro.sim.network import Site
from repro.tee.ias import IntelAttestationService
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform

#: The governed policy as its stakeholders write it. The board section
#: names each member's certificate, which the deployment tooling resolves
#: to the member's self-signed certificate; the MRENCLAVE is the measured
#: v1 build, written in as hex.
POLICY_YAML = """
# Every change to this policy needs the board's approval.
name: governed_service
services:
  - name: service
    image_name: 'service-image'
    mrenclaves: ["{v1}"]
    platforms: []  # any platform PALAEMON has enrolled
board:
  threshold: 2  # f+1 with f=1
  members:
    - name: developer
      certificate: developer
      approval_endpoint: approval-developer
    - name: auditor
      certificate: auditor
      approval_endpoint: approval-auditor
      veto: false
    - name: data-provider
      certificate: data-provider
      approval_endpoint: approval-data-provider
      veto: true
"""


def main() -> None:
    rng = DeterministicRandom(b"secure-update")
    simulator = Simulator()
    platform = SGXPlatform(simulator, "node", rng.fork(b"platform"))
    ias = IntelAttestationService(simulator, Site.IAS_US, rng.fork(b"ias"))
    ias.register_platform(platform.quoting_enclave.attestation_public_key,
                          platform.microcode.revision)

    # --- the board: developer, auditor, data provider (veto) --------------
    approval_services = {}
    certificates = {}
    decision_rules = {}
    for name in ("developer", "auditor", "data-provider"):
        keys = KeyPair.generate(rng.fork(name.encode()), bits=512)
        endpoint = f"approval-{name}"
        if name == "auditor":
            service = TwoFactorApprovalService(
                simulator, name, keys,
                device_secret=rng.fork(b"auditor-device").bytes(32))
        else:
            service = ApprovalService(simulator, name, keys)
        approval_services[endpoint] = service
        decision_rules[name] = service
        certificates[name] = self_signed_certificate(name, keys)
    evaluator = BoardEvaluator(simulator, approval_services)
    auditor = decision_rules["auditor"]

    def auditor_types_code() -> None:
        """The auditor reads the current code off their device and types it;
        the code counts for the next board round only."""
        auditor.present_code(auditor.expected_code(simulator.now))

    palaemon = PalaemonService(platform, BlockStore("palaemon-volume"),
                               rng.fork(b"palaemon"),
                               board_evaluator=evaluator)
    palaemon.platform_registry.enroll(
        platform.platform_id,
        platform.quoting_enclave.attestation_public_key)
    simulator.run_process(palaemon.start())
    ca = PalaemonCA(platform, ias, frozenset({palaemon.mrenclave}),
                    rng.fork(b"ca"))
    palaemon.obtain_certificate(ca)

    operator = PalaemonClient("operator", rng.fork(b"operator"))
    operator.attest_instance_via_ca(palaemon, ca.root_public_key,
                                    now=simulator.now)

    v1 = build_image("service-image", seed=b"v1", version="1.0")
    policy = SecurityPolicy.from_yaml(
        POLICY_YAML.format(v1=v1.mrenclave().hex()),
        certificate_registry=certificates)
    board = policy.board
    operator.create_policy(palaemon, policy)
    print("Policy created under a 3-member board (threshold 2, "
          "data provider holds veto).")
    runtime = SconeRuntime(platform, palaemon, rng.fork(b"runtime"))
    runtime.launch(v1, "governed_service", "service")
    print("v1 attested and running.")

    # --- 1. legitimate update ---------------------------------------------
    # The data provider is offline, so v2 needs the auditor's vote; a
    # stolen auditor key alone cannot cast it. v2 also brings an archiver
    # service and a volume for its archive, each with fresh keys.
    v2 = build_image("service-image", seed=b"v2", version="2.0")
    updated = operator.read_policy(palaemon, "governed_service")
    prepare_application_update(updated, "service", v2.mrenclave())
    updated.services.append(ServiceSpec(
        name="archiver", image_name="service-image",
        mrenclaves=[v2.mrenclave()]))
    updated.volumes.append(VolumeSpec(name="archive", path="/archive"))
    approval_services["approval-data-provider"].online = False
    try:
        operator.update_policy(palaemon, updated)
        raise AssertionError("the auditor voted without the device code!")
    except ApprovalDeniedError as exc:
        print(f"1. Data provider offline; without the device code the "
              f"auditor abstains: {exc}")
    auditor_types_code()
    operator.update_policy(palaemon, updated)
    approval_services["approval-data-provider"].online = True
    runtime.launch(v2, "governed_service", "service")
    print("   v2 rollout: board approved with the auditor's device code, "
          "new MRENCLAVE admitted, v2 attested.")

    # --- 2. malicious insider ---------------------------------------------
    # Only the (compromised) developer approves; auditor and data provider
    # reject anything whose digest they have not reviewed.
    reviewed = set()

    def reviewers_rule(request: AccessRequest) -> bool:
        return (request.operation != "update"
                or request.change_digest in reviewed)

    decision_rules["auditor"].decision_rule = reviewers_rule
    decision_rules["data-provider"].decision_rule = reviewers_rule
    backdoored = build_image("service-image", seed=b"backdoor",
                             version="2.1")
    malicious = operator.read_policy(palaemon, "governed_service")
    prepare_application_update(malicious, "service", backdoored.mrenclave())
    auditor_types_code()
    try:
        operator.update_policy(palaemon, malicious)
        raise AssertionError("malicious update went through!")
    except ApprovalDeniedError as exc:
        print(f"2. backdoored v2.1 blocked at the board: {exc}")
    try:
        runtime.launch(backdoored, "governed_service", "service")
    except MrenclaveNotPermittedError:
        print("   ...and the backdoored binary cannot attest.")

    # --- 3. the veto --------------------------------------------------------
    decision_rules["auditor"].decision_rule = lambda _request: True
    decision_rules["developer"].decision_rule = lambda _request: True
    decision_rules["data-provider"].decision_rule = (
        lambda request: request.operation != "update")
    leaky = operator.read_policy(palaemon, "governed_service")
    prepare_application_update(
        leaky, "service",
        build_image("service-image", seed=b"leaky", version="2.2")
        .mrenclave())
    auditor_types_code()
    try:
        operator.update_policy(palaemon, leaky)
        raise AssertionError("veto did not fire!")
    except VetoError as exc:
        print(f"3. {exc}")
    decision_rules["data-provider"].decision_rule = lambda _request: True

    # --- 4. image-policy revocation (the intersection rule) ---------------
    # The image provider vouches for v1, v2 and a v3 the application has
    # not adopted (tag wildcard: the provider curates binaries;
    # per-deployment volume tags stay with the app). The application allows
    # v1 and v2.
    v3 = build_image("service-image", seed=b"v3", version="3.0")
    export = ImagePolicyExport("service-image")
    for image, version in ((v1, "1.0"), (v2, "2.0"), (v3, "3.0")):
        export.add_release(ImageRelease(image.mrenclave(), b"", version))
    app_allowed = {(v1.mrenclave(), b""), (v2.mrenclave(), b"")}
    with_import = operator.read_policy(palaemon, "governed_service")
    apply_image_export(with_import, export, app_allowed)
    operator.update_policy(palaemon, with_import)
    runtime.launch(v1, "governed_service", "service")
    print(f"4. intersection: {len(with_import.permitted_combinations)} of "
          f"the image provider's {len(export.releases)} releases are "
          f"permitted; curated v1 runs.")

    export.revoke("1.0")  # vulnerability discovered upstream
    revoked = operator.read_policy(palaemon, "governed_service")
    apply_image_export(revoked, export, app_allowed)
    operator.update_policy(palaemon, revoked)
    try:
        runtime.launch(v1, "governed_service", "service")
        raise AssertionError("revoked combination still runs!")
    except AttestationError:
        print("   upstream revoked v1.0 -> the combination is disabled "
              "downstream automatically.")

    # --- 5. updating PALAEMON itself (via its CA) ---------------------------
    new_palaemon_mre = build_palaemon_image(version="2.0").mrenclave()
    coordinator = CAUpdateCoordinator(board, evaluator, operator.certificate)
    new_ca = coordinator.approve_and_build(
        ca, frozenset({palaemon.mrenclave, new_palaemon_mre}),
        rng.fork(b"ca-v2"), version="2.0")
    palaemon.obtain_certificate(new_ca)
    print("5. board approved the CA update; the new CA certifies both the "
          "current and the next PALAEMON version. Done.")


if __name__ == "__main__":
    main()
