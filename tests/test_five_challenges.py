"""Acceptance suite: the five challenges of §I, each demonstrated end to end.

These are integration-level walkthroughs — one test class per numbered
challenge from the paper's introduction, composing the mechanisms the unit
suites verify in isolation. They double as executable documentation of
what "solving" each challenge means.
"""

import pytest

from repro.core.client import PalaemonClient
from repro.core.policy import ImportSpec, VolumeImportSpec, VolumeSpec
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.core.update import prepare_application_update
from repro.crypto.primitives import DeterministicRandom
from repro.errors import (
    ApprovalDeniedError,
    AttestationError,
    MrenclaveNotPermittedError,
    StaleDatabaseError,
    TagMismatchError,
)
from repro.fs.blockstore import BlockStore
from repro.runtime.scone import SconeRuntime
from repro.tee.image import build_image

from tests.core.conftest import Deployment


@pytest.fixture()
def deployment():
    return Deployment(seed=b"five-challenges")


@pytest.fixture()
def runtime(deployment):
    return SconeRuntime(deployment.platform, deployment.palaemon,
                        DeterministicRandom(b"challenge-runtime"))


class TestChallenge1SecretManagement:
    """How can we securely provide applications with secrets in an
    untrusted environment? — through the channels legacy software already
    uses, after attestation, with nothing in the clear anywhere."""

    def test_all_three_channels_end_to_end(self, deployment, runtime):
        policy = deployment.make_policy(
            secrets=[SecretSpec(name="TOKEN", kind=SecretKind.RANDOM)],
            injection_files={"/etc/app.conf":
                             b"token = $$PALAEMON$TOKEN$$\n"})
        policy.services[0].command = ["app", "--token=$$PALAEMON$TOKEN$$"]
        policy.services[0].environment["APP_TOKEN"] = "$$PALAEMON$TOKEN$$"
        deployment.client.create_policy(deployment.palaemon, policy)
        app = runtime.launch(deployment.app_image, "ml_policy", "ml_app")
        token = app.config.secrets["TOKEN"]
        # Channel 1: command-line argument — the placeholder was replaced
        # by the secret's (decoded) value.
        assert "$$PALAEMON$" not in app.argv()[1]
        assert app.argv()[1] != "app --token="
        assert app.argv()[1].startswith("--token=")
        assert len(app.argv()[1]) > len("--token=")
        # Channel 2: environment variable.
        assert "$$PALAEMON$" not in app.getenv("APP_TOKEN")
        # Channel 3: config file, injected in enclave memory only.
        assert token in app.read_file("/etc/app.conf")
        # And the untrusted world never sees it.
        assert deployment.volume.scan_for(token) == []

    def test_per_instance_secrets_from_one_image(self, deployment, runtime):
        """'one can inject different secrets in each container instance of
        an image' — two policies over the same image get distinct keys."""
        for name in ("tenant_a", "tenant_b"):
            deployment.client.create_policy(
                deployment.palaemon, deployment.make_policy(name=name))
        app_a = runtime.launch(deployment.app_image, "tenant_a", "ml_app")
        app_b = runtime.launch(deployment.app_image, "tenant_b", "ml_app")
        assert (app_a.config.secrets["API_KEY"]
                != app_b.config.secrets["API_KEY"])


class TestChallenge2ManagedOperation:
    """How can we delegate the management of PALAEMON to untrusted
    stakeholders? — attestation makes the operator irrelevant."""

    def test_trust_without_trusting_the_operator(self, deployment):
        # A fresh client with no prior relationship to the operator:
        client = PalaemonClient("stranger", DeterministicRandom(b"stranger"))
        client.attest_instance_via_ca(deployment.palaemon,
                                      deployment.ca.root_public_key,
                                      now=deployment.simulator.now)
        client.create_policy(deployment.palaemon,
                             deployment.make_policy(name="strangers_policy"))
        # The operator's full volume access yields nothing:
        assert deployment.volume.scan_for(b"strangers_policy") == []

    def test_operator_substitution_attack_fails(self, deployment):
        """The operator swaps in its own build; every client notices."""
        impostor = PalaemonService(deployment.platform,
                                   BlockStore("impostor"),
                                   DeterministicRandom(b"impostor"),
                                   version="operator-special")
        with pytest.raises(AttestationError):
            impostor.obtain_certificate(deployment.ca)


class TestChallenge3RobustRootOfTrust:
    """How can we protect CIF against malicious stakeholders? — no single
    individual can effect a change."""

    def test_no_single_stakeholder_suffices(self):
        deployment = Deployment(seed=b"c3", board_members=3,
                                board_threshold=2)
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        # Compromise exactly one board member (member-0 approves anything);
        # the other two refuse updates.
        for name in ("member-1", "member-2"):
            deployment.approval_services[f"approval-{name}"].decision_rule = (
                lambda request: request.operation != "update")
        evil = deployment.make_policy()
        evil.services[0].mrenclaves = [
            build_image("ml-engine", seed=b"evil").mrenclave()]
        with pytest.raises(ApprovalDeniedError):
            deployment.client.update_policy(deployment.palaemon, evil)

    def test_f_plus_one_honest_approvals_suffice(self):
        deployment = Deployment(seed=b"c3b", board_members=3,
                                board_threshold=2)
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        # One member is down; the remaining two approve: 2 >= threshold.
        deployment.approval_services["approval-member-2"].online = False
        update = deployment.make_policy()
        prepare_application_update(
            update, "ml_app",
            build_image("ml-engine", seed=b"v2").mrenclave())
        deployment.client.update_policy(deployment.palaemon, update)


class TestChallenge4RollbackProtection:
    """How can we ensure freshness of data and code efficiently? — tags at
    PALAEMON for applications, the counter protocol for PALAEMON itself,
    negligible overhead (Fig 10/11 benches quantify it)."""

    def test_application_state_freshness(self, deployment, runtime):
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        volume = BlockStore("state-volume")
        app = runtime.launch(deployment.app_image, "ml_policy", "ml_app",
                             volume=volume)
        app.write_file("/state", b"epoch-1")
        app.exit_cleanly()
        old = volume.snapshot()
        app2 = runtime.launch(deployment.app_image, "ml_policy", "ml_app",
                              volume=volume)
        app2.write_file("/state", b"epoch-2")
        app2.exit_cleanly()
        volume.restore(old)
        with pytest.raises(TagMismatchError):
            runtime.launch(deployment.app_image, "ml_policy", "ml_app",
                           volume=volume)

    def test_palaemon_state_freshness(self, deployment):
        old = deployment.volume.snapshot()
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        deployment.stop_palaemon()
        deployment.volume.restore(old)
        reborn = PalaemonService(deployment.platform, deployment.volume,
                                 DeterministicRandom(b"reborn"),
                                 board_evaluator=deployment.evaluator)
        with pytest.raises(StaleDatabaseError):
            deployment.simulator.run_process(reborn.start())

    def test_code_freshness_via_combinations(self, deployment, runtime):
        """Freshness of *code*: a retired version cannot be re-run."""
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        new_image = build_image("ml-engine", seed=b"patched")
        policy = deployment.client.read_policy(deployment.palaemon,
                                               "ml_policy")
        prepare_application_update(policy, "ml_app", new_image.mrenclave())
        policy.service("ml_app").mrenclaves.remove(  # retire the old build
            deployment.app_image.mrenclave())
        deployment.client.update_policy(deployment.palaemon, policy)
        with pytest.raises(MrenclaveNotPermittedError):
            runtime.launch(deployment.app_image, "ml_policy", "ml_app")
        runtime.launch(new_image, "ml_policy", "ml_app")


class TestChallenge5SecureUpdate:
    """How can we update applications and PALAEMON itself without
    compromising secrets? — board-gated policy updates carry the secrets
    forward; the CA allow-list gates PALAEMON versions."""

    def test_secrets_survive_application_update(self, deployment, runtime):
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        before = runtime.launch(deployment.app_image, "ml_policy",
                                "ml_app").config.secrets["API_KEY"]
        new_image = build_image("ml-engine", seed=b"v2")
        policy = deployment.client.read_policy(deployment.palaemon,
                                               "ml_policy")
        prepare_application_update(policy, "ml_app", new_image.mrenclave())
        deployment.client.update_policy(deployment.palaemon, policy)
        after = runtime.launch(new_image, "ml_policy",
                               "ml_app").config.secrets["API_KEY"]
        assert before == after  # the new version inherited the secret

    def test_data_flows_across_versions_through_volumes(self, deployment,
                                                        runtime):
        """An update keeps access to the old version's encrypted data."""
        policy = deployment.make_policy()
        policy.volumes.append(VolumeSpec(name="data", path="/data"))
        deployment.client.create_policy(deployment.palaemon, policy)
        shared = BlockStore("data-volume")
        v1_app = runtime.launch(deployment.app_image, "ml_policy", "ml_app")
        v1_data = v1_app.mount_volume("data", shared)
        v1_data.write("/data/db", b"accumulated-state")
        v1_data.sync()

        new_image = build_image("ml-engine", seed=b"v2")
        updated = deployment.client.read_policy(deployment.palaemon,
                                                "ml_policy")
        prepare_application_update(updated, "ml_app", new_image.mrenclave())
        deployment.client.update_policy(deployment.palaemon, updated)
        v2_app = runtime.launch(new_image, "ml_policy", "ml_app")
        v2_data = v2_app.mount_volume("data", shared)
        assert v2_data.read("/data/db") == b"accumulated-state"
