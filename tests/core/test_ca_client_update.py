"""Tests for the PALAEMON CA, client attestation paths, and secure update."""

import pytest

from repro.core.ca import PalaemonCA, build_ca_image
from repro.core.client import PalaemonClient
from repro.core.board import BoardEvaluator
from repro.core.service import PalaemonService, build_palaemon_image
from repro.core.update import (
    CAUpdateCoordinator,
    ImagePolicyExport,
    ImageRelease,
    apply_image_export,
    intersect_permitted,
    prepare_application_update,
)
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.errors import AttestationError, UpdateError
from repro.fs.blockstore import BlockStore
from repro.tee.image import build_image

from tests.core.conftest import Deployment


class TestCaImage:
    def test_allowlist_embedded_in_measurement(self):
        """Changing the allow-list changes the CA's own MRENCLAVE."""
        a = build_ca_image(frozenset({b"\x01" * 32}))
        b = build_ca_image(frozenset({b"\x02" * 32}))
        assert a.mrenclave() != b.mrenclave()

    def test_allowlist_order_irrelevant(self):
        a = build_ca_image(frozenset({b"\x01" * 32, b"\x02" * 32}))
        b = build_ca_image(frozenset({b"\x02" * 32, b"\x01" * 32}))
        assert a.mrenclave() == b.mrenclave()


class TestCaIssuance:
    def test_approved_instance_gets_certificate(self, deployment):
        cert = deployment.palaemon.certificate
        assert cert is not None
        cert.verify(now=deployment.simulator.now,
                    trusted_root=deployment.ca.root_public_key)
        assert cert.attributes["mrenclave"] == \
            deployment.palaemon.mrenclave.hex()

    def test_unapproved_mre_refused(self, deployment):
        """A provider-modified PALAEMON build never gets certified."""
        rogue = PalaemonService(
            deployment.platform, BlockStore("rogue-volume"),
            DeterministicRandom(b"rogue"), version="evil-fork")
        assert rogue.mrenclave != deployment.palaemon.mrenclave
        with pytest.raises(AttestationError, match="not an approved"):
            rogue.obtain_certificate(deployment.ca)

    def test_certificate_lifetime_limited(self, deployment):
        from repro.errors import CertificateError

        cert = deployment.palaemon.certificate
        with pytest.raises(CertificateError, match="expired"):
            cert.verify(now=deployment.simulator.now
                        + deployment.ca.cert_lifetime + 1,
                        trusted_root=deployment.ca.root_public_key)

    def test_key_binding_enforced(self, deployment):
        """The CA refuses quotes that do not bind the claimed public key."""
        from repro.crypto.signatures import KeyPair

        other_keys = KeyPair.generate(DeterministicRandom(b"other"), bits=512)
        quote = deployment.platform.quoting_enclave.quote(
            deployment.palaemon.enclave,
            sha256(deployment.palaemon.public_key.to_bytes()))
        with pytest.raises(AttestationError, match="bind"):
            deployment.ca.issue_instance_certificate(
                quote, other_keys.public, subject="mitm")


class TestClientAttestation:
    def test_via_ca_accepts_certified_instance(self, deployment):
        client = PalaemonClient("fresh", DeterministicRandom(b"fresh"))
        client.attest_instance_via_ca(deployment.palaemon,
                                      deployment.ca.root_public_key,
                                      now=deployment.simulator.now)
        assert deployment.palaemon.name in client.attested_instances

    def test_via_ca_rejects_uncertified_instance(self, deployment):
        rogue = PalaemonService(deployment.platform, BlockStore("r"),
                                DeterministicRandom(b"r2"),
                                name="rogue-instance")
        client = PalaemonClient("fresh", DeterministicRandom(b"fresh"))
        with pytest.raises(AttestationError, match="no CA certificate"):
            client.attest_instance_via_ca(rogue,
                                          deployment.ca.root_public_key,
                                          now=deployment.simulator.now)

    def test_via_ca_rejects_foreign_root(self, deployment):
        from repro.crypto.certificates import CertificateAuthority

        evil_root = CertificateAuthority.create(
            "evil", DeterministicRandom(b"evil"))
        client = PalaemonClient("fresh", DeterministicRandom(b"fresh"))
        with pytest.raises(AttestationError, match="rejected"):
            client.attest_instance_via_ca(deployment.palaemon,
                                          evil_root.root_public_key,
                                          now=deployment.simulator.now)

    def test_explicit_attestation_accepts_trusted_mre(self, deployment):
        client = PalaemonClient("explicit", DeterministicRandom(b"e"))
        report = client.attest_instance_explicitly(
            deployment.palaemon, deployment.ias,
            trusted_mrenclaves=frozenset({deployment.palaemon.mrenclave}))
        assert report.mrenclave == deployment.palaemon.mrenclave
        assert deployment.palaemon.name in client.attested_instances

    def test_explicit_attestation_rejects_unknown_mre(self, deployment):
        """Clients that only trust older PALAEMON versions reject this one."""
        client = PalaemonClient("cautious", DeterministicRandom(b"c"))
        older_version = build_palaemon_image(version="0.9").mrenclave()
        with pytest.raises(AttestationError, match="not an approved PALAEMON version"):
            client.attest_instance_explicitly(
                deployment.palaemon, deployment.ias,
                trusted_mrenclaves=frozenset({older_version}))


class TestApplicationUpdate:
    def test_board_approved_update_admits_new_version(self, deployment):
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        new_image = build_image("ml-engine", seed=b"v2", version="2.0")
        # Old version attests fine; new version is refused pre-update.
        deployment.palaemon.attest_application(
            deployment.evidence_for("ml_policy"))
        from repro.errors import MrenclaveNotPermittedError

        with pytest.raises(MrenclaveNotPermittedError):
            deployment.palaemon.attest_application(
                deployment.evidence_for("ml_policy", image=new_image))
        # Update the policy (board approves by default in this deployment).
        policy = deployment.client.read_policy(deployment.palaemon,
                                               "ml_policy")
        prepare_application_update(policy, "ml_app", new_image.mrenclave())
        deployment.client.update_policy(deployment.palaemon, policy)
        deployment.palaemon.attest_application(
            deployment.evidence_for("ml_policy", image=new_image))

    def test_retiring_old_version(self, deployment):
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        new_image = build_image("ml-engine", seed=b"v2", version="2.0")
        policy = deployment.client.read_policy(deployment.palaemon,
                                               "ml_policy")
        prepare_application_update(policy, "ml_app", new_image.mrenclave())
        policy.service("ml_app").mrenclaves.remove(  # retire the old build
            deployment.app_image.mrenclave())
        deployment.client.update_policy(deployment.palaemon, policy)
        from repro.errors import MrenclaveNotPermittedError

        with pytest.raises(MrenclaveNotPermittedError):
            deployment.palaemon.attest_application(
                deployment.evidence_for("ml_policy"))  # old image now refused

    def test_rejected_update_keeps_old_policy(self):
        """A malicious update dies at the board; old version keeps working."""
        deployment = Deployment(seed=b"malicious-update")
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        # Board now refuses updates (insider pushing malware gets blocked).
        for service in deployment.approval_services.values():
            service.decision_rule = (
                lambda request: request.operation != "update")
        malicious = build_image("ml-engine", seed=b"backdoored")
        policy = deployment.make_policy()
        prepare_application_update(policy, "ml_app", malicious.mrenclave())
        from repro.errors import ApprovalDeniedError, MrenclaveNotPermittedError

        with pytest.raises(ApprovalDeniedError):
            deployment.client.update_policy(deployment.palaemon, policy)
        with pytest.raises(MrenclaveNotPermittedError):
            deployment.palaemon.attest_application(
                deployment.evidence_for("ml_policy", image=malicious))
        deployment.palaemon.attest_application(
            deployment.evidence_for("ml_policy"))  # old version unaffected

    def test_duplicate_mre_update_rejected(self, deployment):
        policy = deployment.make_policy()
        with pytest.raises(UpdateError, match="already permitted"):
            prepare_application_update(policy, "ml_app",
                                       deployment.app_image.mrenclave())


class TestImagePolicyIntersection:
    def release(self, version, seed):
        image = build_image("python-curated", seed=seed, version=version)
        return ImageRelease(mrenclave=image.mrenclave(),
                            fs_tag=sha256(b"tag" + seed), version=version)

    def test_intersection(self):
        r1, r2, r3 = (self.release("1.0", b"1"), self.release("1.1", b"2"),
                      self.release("1.2", b"3"))
        export = ImagePolicyExport("python-curated", [r1, r2, r3])
        app_allowed = {(r1.mrenclave, r1.fs_tag), (r2.mrenclave, r2.fs_tag)}
        permitted = intersect_permitted(export, app_allowed)
        assert len(permitted) == 2
        assert (r3.mrenclave, r3.fs_tag) not in permitted

    def test_upstream_revocation_propagates(self):
        """§III-E: when the image provider revokes a release, applications
        that imported it lose it automatically."""
        r1, r2 = self.release("1.0", b"1"), self.release("1.1", b"2")
        export = ImagePolicyExport("python-curated", [r1, r2])
        app_allowed = {(r1.mrenclave, r1.fs_tag), (r2.mrenclave, r2.fs_tag)}
        assert len(intersect_permitted(export, app_allowed)) == 2
        export.revoke("1.0")  # vulnerability found in 1.0
        remaining = intersect_permitted(export, app_allowed)
        assert remaining == [(r2.mrenclave, r2.fs_tag)]

    def test_revoke_unknown_version(self):
        export = ImagePolicyExport("img", [self.release("1.0", b"1")])
        with pytest.raises(UpdateError):
            export.revoke("9.9")

    def test_apply_with_app_allowed_keeps_only_the_intersection(self):
        r1, r2, r3 = (self.release("1.0", b"1"), self.release("1.1", b"2"),
                      self.release("1.2", b"3"))
        export = ImagePolicyExport("python-curated", [r1, r2])
        policy = Deployment().make_policy()
        apply_image_export(policy, export, app_allowed={
            (r2.mrenclave, r2.fs_tag), (r3.mrenclave, r3.fs_tag)})
        assert policy.permitted_combinations == [(r2.mrenclave, r2.fs_tag)]

    def test_apply_when_the_app_allows_every_release(self):
        r1, r2 = self.release("1.0", b"1"), self.release("1.1", b"2")
        export = ImagePolicyExport("python-curated", [r1, r2])
        policy = Deployment().make_policy()
        apply_image_export(policy, export, export.combinations())
        assert policy.permitted_combinations == sorted(
            [(r1.mrenclave, r1.fs_tag), (r2.mrenclave, r2.fs_tag)])

    @pytest.mark.parametrize("app_allows_own_build", [True, False])
    def test_application_side_of_the_intersection_enforced(
            self, deployment, app_allows_own_build):
        """The image provider vouches for the running build; it is admitted
        only if the application's own allowed set lists it too."""
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        own = (deployment.app_image.mrenclave(), b"")
        other = self.release("2.0", b"other")
        export = ImagePolicyExport("ml-engine", [
            ImageRelease(mrenclave=own[0], fs_tag=own[1], version="1.0"),
            other])
        app_allowed = {(other.mrenclave, other.fs_tag)}
        if app_allows_own_build:
            app_allowed.add(own)
        policy = deployment.client.read_policy(deployment.palaemon,
                                               "ml_policy")
        apply_image_export(policy, export, app_allowed=app_allowed)
        deployment.client.update_policy(deployment.palaemon, policy)
        evidence = deployment.evidence_for("ml_policy")
        if app_allows_own_build:
            deployment.palaemon.attest_application(evidence)
        else:
            with pytest.raises(AttestationError, match="combination"):
                deployment.palaemon.attest_application(evidence)

    def test_apply_to_policy_enforced_at_attestation(self, deployment):
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        # The image provider only vouches for a *different* build.
        other = self.release("2.0", b"other")
        export = ImagePolicyExport("ml-engine", [other])
        policy = deployment.client.read_policy(deployment.palaemon,
                                               "ml_policy")
        apply_image_export(policy, export, export.combinations())
        deployment.client.update_policy(deployment.palaemon, policy)
        with pytest.raises(AttestationError, match="combination"):
            deployment.palaemon.attest_application(
                deployment.evidence_for("ml_policy"))


class TestCaUpdate:
    def test_board_approved_ca_update(self, deployment):
        """Deploying a new PALAEMON version: new CA with extended allow-list."""
        new_palaemon_mre = build_palaemon_image(version="2.0").mrenclave()
        coordinator = CAUpdateCoordinator(deployment.board,
                                          deployment.evaluator,
                                          deployment.client.certificate)
        new_ca = coordinator.approve_and_build(
            deployment.ca,
            frozenset({deployment.palaemon.mrenclave, new_palaemon_mre}),
            DeterministicRandom(b"ca-v2"), version="2.0")
        assert new_ca.enclave.mrenclave != deployment.ca.enclave.mrenclave
        # The old instance can be re-certified by the new CA too.
        deployment.palaemon.obtain_certificate(new_ca)

    def test_every_ca_update_round_draws_a_fresh_nonce(self, deployment):
        """Two rounds over the same change are distinct requests, so a
        verdict signed for one cannot be replayed into the other."""
        requests = []
        member = next(iter(deployment.approval_services.values()))
        member.decision_rule = lambda request: requests.append(request) or True
        coordinator = CAUpdateCoordinator(deployment.board,
                                          deployment.evaluator,
                                          deployment.client.certificate)
        rng = DeterministicRandom(b"ca-v2")
        for _ in range(2):
            coordinator.approve_and_build(
                deployment.ca, frozenset({deployment.palaemon.mrenclave}),
                rng, version="2.0")
        first, second = (request.nonce for request in requests)
        assert len(first) == len(second) == 16
        assert first != second

    def test_board_rejection_blocks_ca_update(self):
        deployment = Deployment(seed=b"ca-block")
        for service in deployment.approval_services.values():
            service.decision_rule = lambda _request: False
        coordinator = CAUpdateCoordinator(deployment.board,
                                          deployment.evaluator,
                                          deployment.client.certificate)
        from repro.errors import ApprovalDeniedError

        with pytest.raises(ApprovalDeniedError):
            coordinator.approve_and_build(
                deployment.ca, frozenset({b"\x01" * 32}),
                DeterministicRandom(b"x"), version="2.0")

    def test_old_ca_certificates_do_not_chain_to_new_root(self, deployment):
        coordinator = CAUpdateCoordinator(deployment.board,
                                          deployment.evaluator,
                                          deployment.client.certificate)
        new_ca = coordinator.approve_and_build(
            deployment.ca, frozenset({deployment.palaemon.mrenclave}),
            DeterministicRandom(b"ca-v2"), version="2.0")
        from repro.errors import CertificateError

        old_cert = deployment.palaemon.certificate
        with pytest.raises(CertificateError):
            old_cert.verify(now=deployment.simulator.now,
                            trusted_root=new_ca.root_public_key)
