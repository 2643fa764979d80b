"""End-to-end tests for the PALAEMON service: CRUD, attestation, secrets,
tags, strict mode, imports, and the main attack scenarios."""

import pytest

from repro.core.attestation import AttestationEvidence
from repro.core.policy import ImportSpec, VolumeSpec
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.signatures import KeyPair
from repro.errors import (
    AccessDeniedError,
    AttestationError,
    MrenclaveNotPermittedError,
    PlatformNotPermittedError,
    PolicyError,
    PolicyExistsError,
    PolicyNotFoundError,
    StorageFaultError,
    StrictModeError,
)
from repro.fs.blockstore import BlockStore
from repro.sim.faults import FaultPlan
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform

from tests.core.conftest import Deployment, tag_on_volume


class TestPolicyCrud:
    def test_create_and_read(self, deployment):
        policy = deployment.make_policy()
        deployment.client.create_policy(deployment.palaemon, policy)
        fetched = deployment.client.read_policy(deployment.palaemon,
                                                "ml_policy")
        assert fetched.name == "ml_policy"

    def test_duplicate_name_rejected(self, deployment):
        policy = deployment.make_policy()
        deployment.client.create_policy(deployment.palaemon, policy)
        with pytest.raises(PolicyExistsError):
            deployment.client.create_policy(deployment.palaemon, policy)

    def test_read_missing_policy(self, deployment):
        with pytest.raises(PolicyNotFoundError):
            deployment.client.read_policy(deployment.palaemon, "ghost")

    def test_wrong_certificate_denied(self, deployment):
        """Only the creating certificate can access a policy (§IV-E)."""
        from repro.core.client import PalaemonClient

        policy = deployment.make_policy()
        deployment.client.create_policy(deployment.palaemon, policy)
        intruder = PalaemonClient("intruder",
                                  DeterministicRandom(b"intruder"))
        intruder.attest_instance_via_ca(deployment.palaemon,
                                        deployment.ca.root_public_key,
                                        now=deployment.simulator.now)
        with pytest.raises(AccessDeniedError):
            intruder.read_policy(deployment.palaemon, "ml_policy")

    def test_update_policy(self, deployment):
        policy = deployment.make_policy()
        deployment.client.create_policy(deployment.palaemon, policy)
        policy.secrets.append(SecretSpec(name="EXTRA",
                                         kind=SecretKind.RANDOM))
        deployment.client.update_policy(deployment.palaemon, policy)
        fetched = deployment.client.read_policy(deployment.palaemon,
                                                "ml_policy")
        assert any(s.name == "EXTRA" for s in fetched.secrets)

    def test_update_preserves_existing_secret_values(self, deployment):
        policy = deployment.make_policy()
        deployment.client.create_policy(deployment.palaemon, policy)
        before = deployment.palaemon.store.get("secrets",
                                               "ml_policy")["API_KEY"].value
        policy.secrets.append(SecretSpec(name="EXTRA",
                                         kind=SecretKind.RANDOM))
        deployment.client.update_policy(deployment.palaemon, policy)
        after = deployment.palaemon.store.get("secrets",
                                              "ml_policy")["API_KEY"].value
        assert before == after

    def test_delete_policy(self, deployment):
        policy = deployment.make_policy()
        deployment.client.create_policy(deployment.palaemon, policy)
        deployment.client.invoke(deployment.palaemon, "policy.delete",
                                 name="ml_policy")
        assert deployment.palaemon.list_policies() == []

    def test_unattested_client_refused_locally(self, deployment):
        from repro.core.client import PalaemonClient

        stranger = PalaemonClient("stranger", DeterministicRandom(b"s"))
        with pytest.raises(AttestationError, match="has not attested"):
            stranger.create_policy(deployment.palaemon,
                                   deployment.make_policy())

    def test_not_serving_rejected(self, deployment):
        deployment.stop_palaemon()
        with pytest.raises(PolicyError, match="not serving"):
            deployment.client.create_policy(deployment.palaemon,
                                            deployment.make_policy())


class TestBoardGovernance:
    def test_rejecting_board_blocks_create(self):
        deployment = Deployment(seed=b"board-reject")
        for service in deployment.approval_services.values():
            service.decision_rule = lambda _request: False
        from repro.errors import ApprovalDeniedError

        with pytest.raises(ApprovalDeniedError):
            deployment.client.create_policy(deployment.palaemon,
                                            deployment.make_policy())

    def test_veto_blocks_update(self):
        deployment = Deployment(seed=b"veto", veto_members=("member-0",))
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        # The veto member turns against further changes.
        deployment.approval_services["approval-member-0"].decision_rule = (
            lambda _request: False)
        from repro.errors import VetoError

        policy = deployment.make_policy()
        with pytest.raises(VetoError):
            deployment.client.update_policy(deployment.palaemon, policy)

    def test_policy_without_board_needs_no_approval(self, deployment):
        policy = deployment.make_policy(with_board=False)
        for service in deployment.approval_services.values():
            service.decision_rule = lambda _request: False
        deployment.client.create_policy(deployment.palaemon, policy)


class TestAttestation:
    def create(self, deployment, **kwargs):
        policy = deployment.make_policy(**kwargs)
        deployment.client.create_policy(deployment.palaemon, policy)
        return policy

    def test_valid_application_gets_config(self, deployment):
        self.create(deployment)
        evidence = deployment.evidence_for("ml_policy")
        config = deployment.palaemon.attest_application(evidence)
        assert config.command == ["python", "/app.py"]
        assert config.environment == {"MODE": "production"}
        assert len(config.fs_key) == 32
        assert "API_KEY" in config.secrets

    def test_wrong_mrenclave_rejected(self, deployment):
        """A tampered application binary never receives secrets."""
        self.create(deployment)
        tampered = build_image("ml-engine", seed=b"evil")
        evidence = deployment.evidence_for("ml_policy", image=tampered)
        with pytest.raises(MrenclaveNotPermittedError):
            deployment.palaemon.attest_application(evidence)

    def test_unknown_policy_rejected(self, deployment):
        evidence = deployment.evidence_for("ghost_policy")
        with pytest.raises(AttestationError, match="no policy"):
            deployment.palaemon.attest_application(evidence)

    def test_wrong_platform_rejected(self, deployment):
        self.create(deployment, platforms=[b"\x99" * 16])
        evidence = deployment.evidence_for("ml_policy")
        with pytest.raises(PlatformNotPermittedError):
            deployment.palaemon.attest_application(evidence)

    def test_unenrolled_platform_rejected(self, deployment):
        self.create(deployment)
        rogue = SGXPlatform(deployment.simulator, "rogue",
                            DeterministicRandom(b"rogue"))
        evidence = deployment.evidence_for("ml_policy", platform=rogue)
        with pytest.raises(AttestationError, match="unenrolled"):
            deployment.palaemon.attest_application(evidence)

    def test_key_substitution_rejected(self, deployment):
        """A rogue platform that claims an enrolled platform's id still
        signs with its own key, which is not the enrolled one."""
        self.create(deployment)
        rogue = SGXPlatform(deployment.simulator, "rogue",
                            DeterministicRandom(b"rogue"))
        rogue.quoting_enclave.platform_id = deployment.platform.platform_id
        evidence = deployment.evidence_for("ml_policy", platform=rogue)
        with pytest.raises(AttestationError,
                           match="does not match the enrolled platform key"):
            deployment.palaemon.attest_application(evidence)

    def test_revoked_platform_rejected(self, deployment):
        self.create(deployment)
        evidence = deployment.evidence_for("ml_policy")
        deployment.palaemon.attest_application(evidence)
        deployment.palaemon.platform_registry.revoke(
            deployment.platform.platform_id)
        with pytest.raises(AttestationError, match="unenrolled"):
            deployment.palaemon.attest_application(
                deployment.evidence_for("ml_policy"))

    def test_tls_key_binding_enforced(self, deployment):
        """Evidence must bind the TLS key: a MITM swapping keys fails."""
        self.create(deployment)
        honest = deployment.evidence_for("ml_policy")
        mitm_keys = KeyPair.generate(DeterministicRandom(b"mitm"), bits=512)
        swapped = AttestationEvidence(
            quote=honest.quote, policy_name=honest.policy_name,
            service_name=honest.service_name,
            tls_public_key=mitm_keys.public)
        with pytest.raises(AttestationError, match="TLS public key"):
            deployment.palaemon.attest_application(swapped)

    def test_random_secrets_distinct_per_policy(self, deployment):
        self.create(deployment, name="policy_a")
        self.create(deployment, name="policy_b")
        config_a = deployment.palaemon.attest_application(
            deployment.evidence_for("policy_a"))
        config_b = deployment.palaemon.attest_application(
            deployment.evidence_for("policy_b"))
        assert config_a.secrets["API_KEY"] != config_b.secrets["API_KEY"]

    def test_execution_count_tracks_attestations(self, deployment):
        """The ML metering use case: the provider can count executions."""
        self.create(deployment)
        for _ in range(3):
            deployment.palaemon.attest_application(
                deployment.evidence_for("ml_policy"))
        assert deployment.palaemon.execution_count("ml_policy",
                                                   "ml_app") == 3

    def test_secret_injection_into_files(self, deployment):
        self.create(deployment, injection_files={
            "/etc/app.conf": b"api_key = $$PALAEMON$API_KEY$$\n"})
        config = deployment.palaemon.attest_application(
            deployment.evidence_for("ml_policy"))
        injected = config.injected_files["/etc/app.conf"]
        assert injected.startswith(b"api_key = ")
        assert b"$$PALAEMON$" not in injected
        assert config.secrets["API_KEY"] in injected

    def test_secret_injection_into_env_and_args(self, deployment):
        policy = deployment.make_policy()
        policy.services[0].environment["TOKEN"] = "$$PALAEMON$API_KEY$$"
        policy.services[0].command = ["app", "--key=$$PALAEMON$API_KEY$$"]
        deployment.client.create_policy(deployment.palaemon, policy)
        config = deployment.palaemon.attest_application(
            deployment.evidence_for("ml_policy"))
        assert "$$PALAEMON$" not in config.environment["TOKEN"]
        assert "$$PALAEMON$" not in config.command[1]


class TestTagsAndStrictMode:
    def setup_policy(self, deployment, strict=False):
        policy = deployment.make_policy(strict_mode=strict)
        deployment.client.create_policy(deployment.palaemon, policy)
        return policy

    def test_tag_round_trip(self, deployment):
        self.setup_policy(deployment)
        deployment.palaemon.update_tag_instant("ml_policy", "ml_app",
                                               b"\x01" * 32)
        assert deployment.palaemon.get_tag_instant(
            "ml_policy", "ml_app") == b"\x01" * 32

    def test_tag_delivered_in_config(self, deployment):
        self.setup_policy(deployment)
        deployment.palaemon.update_tag_instant("ml_policy", "ml_app",
                                               b"\x02" * 32)
        config = deployment.palaemon.attest_application(
            deployment.evidence_for("ml_policy"))
        assert config.fs_tag == b"\x02" * 32

    def test_strict_mode_blocks_restart_after_unclean_exit(self, deployment):
        self.setup_policy(deployment, strict=True)
        deployment.palaemon.attest_application(
            deployment.evidence_for("ml_policy"))
        # No clean-exit tag push happened; a second attestation must fail.
        with pytest.raises(StrictModeError):
            deployment.palaemon.attest_application(
                deployment.evidence_for("ml_policy"))

    def test_strict_mode_allows_restart_after_clean_exit(self, deployment):
        self.setup_policy(deployment, strict=True)
        deployment.palaemon.attest_application(
            deployment.evidence_for("ml_policy"))
        deployment.palaemon.update_tag_instant("ml_policy", "ml_app",
                                               b"\x03" * 32, clean_exit=True)
        deployment.palaemon.attest_application(
            deployment.evidence_for("ml_policy"))

    def test_non_strict_mode_allows_unclean_restart(self, deployment):
        self.setup_policy(deployment, strict=False)
        deployment.palaemon.attest_application(
            deployment.evidence_for("ml_policy"))
        deployment.palaemon.attest_application(
            deployment.evidence_for("ml_policy"))

    def test_tag_update_latency_6x_read(self, deployment):
        """Fig 11 left: updates commit to disk, reads do not."""
        self.setup_policy(deployment)
        sim = deployment.simulator

        def timed_update():
            start = sim.now
            yield sim.process(deployment.palaemon.update_tag(
                "ml_policy", "ml_app", b"\x04" * 32))
            return sim.now - start

        def timed_read():
            start = sim.now
            yield sim.process(deployment.palaemon.get_tag(
                "ml_policy", "ml_app"))
            return sim.now - start

        update_latency = sim.run_process(timed_update())
        read_latency = sim.run_process(timed_read())
        assert 4 <= update_latency / read_latency <= 8

    def test_simultaneous_updates_in_a_write_fault_both_raise(
            self, deployment):
        """Two timed updates started in one instant inside a write-fault
        window share its failed flush: both raise, and neither tag is in
        memory or on the volume. Each queues its commit in the step of
        its change, so the flush that drops the change fails it; after
        the window both land."""
        self.setup_policy(deployment)
        palaemon = deployment.palaemon
        palaemon.create_policy(
            deployment.make_policy(name="second", with_board=False),
            deployment.client.certificate)
        sim = deployment.simulator
        FaultPlan(sim, palaemon.telemetry).fail_store(
            deployment.volume.name, end=sim.now + 1.0).attach(
                deployment.volume)
        outcomes = {}

        def update(policy_name, tag):
            try:
                yield from palaemon.update_tag(policy_name, "ml_app", tag)
                outcomes[policy_name] = "ok"
            except StorageFaultError:
                outcomes[policy_name] = "raised"

        def both():
            yield sim.all_of([sim.process(update("ml_policy", b"\x01" * 32)),
                              sim.process(update("second", b"\x02" * 32))])

        sim.run_process(both())
        assert outcomes == {"ml_policy": "raised", "second": "raised"}
        for policy_name in ("ml_policy", "second"):
            assert palaemon.get_tag_instant(policy_name, "ml_app") is None
            assert tag_on_volume(palaemon, policy_name) is None
        sim.run(until=sim.now + 1.0)
        sim.run_process(both())
        assert outcomes == {"ml_policy": "ok", "second": "ok"}
        assert tag_on_volume(palaemon, "second") == b"\x02" * 32

    def test_timed_update_fails_with_the_instant_flush_that_drops_it(
            self, deployment):
        """A timed update queues its commit in the step of its change, so
        an instant update's failed flush in the same instant, which puts
        both changes back, fails the timed one too."""
        self.setup_policy(deployment)
        palaemon = deployment.palaemon
        palaemon.create_policy(
            deployment.make_policy(name="second", with_board=False),
            deployment.client.certificate)
        sim = deployment.simulator
        FaultPlan(sim, palaemon.telemetry).fail_store(
            deployment.volume.name, end=sim.now + 1.0).attach(
                deployment.volume)
        outcomes = []

        def timed():
            try:
                yield from palaemon.update_tag("ml_policy", "ml_app",
                                               b"\x01" * 32)
                outcomes.append("ok")
            except StorageFaultError:
                outcomes.append("raised")

        def instant():
            with pytest.raises(StorageFaultError):
                palaemon.update_tag_instant("second", "ml_app", b"\x02" * 32)
            yield sim.timeout(0)

        def both():
            yield sim.all_of([sim.process(timed()), sim.process(instant())])

        sim.run_process(both())
        assert outcomes == ["raised"]
        assert palaemon.get_tag_instant("ml_policy", "ml_app") is None
        assert tag_on_volume(palaemon) is None

    def test_unknown_service_state(self, deployment):
        with pytest.raises(PolicyNotFoundError):
            deployment.palaemon.get_tag_instant("nope", "nope")

    def update_after_a_run(self, timed, clean_exit):
        """A strict-mode service runs once, then pushes a tag through the
        timed or the instant path; returns the deployment."""
        deployment = Deployment()
        self.setup_policy(deployment, strict=True)
        palaemon = deployment.palaemon
        palaemon.attest_application(deployment.evidence_for("ml_policy"))
        update = ("ml_policy", "ml_app", b"\x05" * 32)
        if timed:
            deployment.simulator.run_process(
                palaemon.update_tag(*update, clean_exit=clean_exit))
        else:
            palaemon.update_tag_instant(*update, clean_exit=clean_exit)
        return deployment

    @pytest.mark.parametrize("clean_exit", [False, True])
    def test_timed_and_instant_updates_record_alike(self, clean_exit):
        """Both paths leave the same tag and exit state, count the update
        once and audit it with the same details."""

        def outcome(timed):
            palaemon = self.update_after_a_run(timed, clean_exit).palaemon
            state = palaemon._service_state("ml_policy", "ml_app")
            telemetry = palaemon.telemetry
            (record,) = [record for record in telemetry.audit_log.records
                         if record.kind == "tag.update"]
            return (state.expected_tag, state.clean_exit, record.details,
                    telemetry.metrics.counter(
                        "palaemon_tag_updates_total").value)

        assert outcome(timed=True) == outcome(timed=False)
        assert outcome(timed=True)[:2] == (b"\x05" * 32, clean_exit)
        assert outcome(timed=True)[3] == 1

    def test_only_the_timed_update_is_traced_and_timed(self):
        for timed in (False, True):
            telemetry = self.update_after_a_run(
                timed, clean_exit=True).palaemon.telemetry
            spans = [span for span in telemetry.tracer.finished
                     if span.name == "tag.update"]
            latency = telemetry.metrics.histogram(
                "palaemon_tag_update_seconds")
            assert len(spans) == latency.count == int(timed)


class TestSecretImportExport:
    def test_cross_policy_import(self, deployment):
        """§III-A(g): exports flow between policies under access control."""
        producer = deployment.make_policy(
            name="producer", secrets=[SecretSpec(
                name="MODEL_KEY", kind=SecretKind.RANDOM,
                export_to=("consumer",))])
        deployment.client.create_policy(deployment.palaemon, producer)
        consumer = deployment.make_policy(
            name="consumer", secrets=[],
            imports=[ImportSpec(from_policy="producer",
                                secret_name="MODEL_KEY")])
        deployment.client.create_policy(deployment.palaemon, consumer)
        config = deployment.palaemon.attest_application(
            deployment.evidence_for("consumer"))
        producer_value = deployment.palaemon.store.get(
            "secrets", "producer")["MODEL_KEY"].value
        assert config.secrets["MODEL_KEY"] == producer_value

    def test_unexported_secret_denied(self, deployment):
        producer = deployment.make_policy(
            name="producer", secrets=[SecretSpec(
                name="MODEL_KEY", kind=SecretKind.RANDOM)])  # no export
        deployment.client.create_policy(deployment.palaemon, producer)
        thief = deployment.make_policy(
            name="thief", secrets=[],
            imports=[ImportSpec(from_policy="producer",
                                secret_name="MODEL_KEY")])
        deployment.client.create_policy(deployment.palaemon, thief)
        with pytest.raises(AccessDeniedError, match="does not export"):
            deployment.palaemon.attest_application(
                deployment.evidence_for("thief"))

    def test_export_is_per_destination(self, deployment):
        producer = deployment.make_policy(
            name="producer", secrets=[SecretSpec(
                name="MODEL_KEY", kind=SecretKind.RANDOM,
                export_to=("friend",))])
        deployment.client.create_policy(deployment.palaemon, producer)
        stranger = deployment.make_policy(
            name="stranger", secrets=[],
            imports=[ImportSpec(from_policy="producer",
                                secret_name="MODEL_KEY")])
        deployment.client.create_policy(deployment.palaemon, stranger)
        with pytest.raises(AccessDeniedError):
            deployment.palaemon.attest_application(
                deployment.evidence_for("stranger"))

    def test_import_alias(self, deployment):
        producer = deployment.make_policy(
            name="producer", secrets=[SecretSpec(
                name="MODEL_KEY", kind=SecretKind.RANDOM,
                export_to=("consumer",))])
        deployment.client.create_policy(deployment.palaemon, producer)
        consumer = deployment.make_policy(
            name="consumer", secrets=[],
            imports=[ImportSpec(from_policy="producer",
                                secret_name="MODEL_KEY",
                                local_name="UPSTREAM_KEY")])
        deployment.client.create_policy(deployment.palaemon, consumer)
        config = deployment.palaemon.attest_application(
            deployment.evidence_for("consumer"))
        assert "UPSTREAM_KEY" in config.secrets

    def test_repeated_import_attestation_leaves_secrets_alone(self,
                                                              deployment):
        """Attesting an importer reads the exporter's secret; it never
        reseals the secrets snapshot, and every attest logs a record of
        the same size."""
        producer = deployment.make_policy(
            name="producer", secrets=[SecretSpec(
                name="MODEL_KEY", kind=SecretKind.RANDOM,
                export_to=("consumer",))])
        deployment.client.create_policy(deployment.palaemon, producer)
        consumer = deployment.make_policy(
            name="consumer", secrets=[],
            imports=[ImportSpec(from_policy="producer",
                                secret_name="MODEL_KEY")])
        deployment.client.create_policy(deployment.palaemon, consumer)
        volume = deployment.volume
        secrets_snapshots = [path for path in volume.list()
                             if path.startswith("/palaemon.db.snap/secrets.")]
        assert len(secrets_snapshots) == 1
        generation = volume.generation(secrets_snapshots[0])
        writes = []
        original_write = volume.write

        def recording_write(path, data):
            writes.append((path, len(data)))
            original_write(path, data)

        volume.write = recording_write
        for _ in range(4):
            deployment.palaemon.attest_application(
                deployment.evidence_for("consumer"))
        assert volume.generation(secrets_snapshots[0]) == generation
        assert not [path for path, _size in writes
                    if path.startswith("/palaemon.db.snap/secrets.")]
        record_sizes = {size for path, size in writes
                        if path.startswith("/palaemon.db.log/")}
        assert len(record_sizes) == 1

    def test_import_from_unknown_policy(self, deployment):
        consumer = deployment.make_policy(
            name="consumer", secrets=[],
            imports=[ImportSpec(from_policy="ghost", secret_name="K")])
        deployment.client.create_policy(deployment.palaemon, consumer)
        with pytest.raises(PolicyError, match="unknown policy"):
            deployment.palaemon.attest_application(
                deployment.evidence_for("consumer"))


class TestInstanceIdentity:
    def test_identity_survives_restart(self):
        """§IV-B: the key pair is sealed; restarts keep the public key."""
        deployment = Deployment(seed=b"identity")
        first_key = deployment.palaemon.public_key
        deployment.stop_palaemon()
        restarted = PalaemonService(
            deployment.platform, deployment.volume,
            DeterministicRandom(b"different-runtime-rng"),
            board_evaluator=deployment.evaluator)
        assert restarted.public_key == first_key

    def test_restarted_instance_reads_policies(self):
        deployment = Deployment(seed=b"restart-read")
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        deployment.stop_palaemon()
        restarted = PalaemonService(
            deployment.platform, deployment.volume,
            DeterministicRandom(b"other"),
            board_evaluator=deployment.evaluator)
        deployment.simulator.run_process(restarted.start())
        assert restarted.list_policies() == ["ml_policy"]

    def test_different_platform_cannot_steal_identity(self):
        """The sealed identity is bound to the platform."""
        from repro.errors import SealingError

        deployment = Deployment(seed=b"steal")
        stolen_volume = BlockStore()
        stolen_volume.restore(deployment.volume.snapshot())
        thief_platform = SGXPlatform(deployment.simulator, "thief",
                                     DeterministicRandom(b"thief"))
        with pytest.raises(SealingError):
            PalaemonService(thief_platform, stolen_volume,
                            DeterministicRandom(b"thief-rng"))

    def test_secrets_encrypted_on_volume(self):
        deployment = Deployment(seed=b"at-rest")
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        config = deployment.palaemon.attest_application(
            deployment.evidence_for("ml_policy"))
        secret = config.secrets["API_KEY"]
        assert deployment.volume.scan_for(secret) == []


class TestCreationKeysNeverRepeat:
    """Creation-time keys come from a stream that never repeats.

    A deleted policy's secrets and file-system/volume keys must not come
    back when its name is reused, whoever reuses it and however often the
    instance restarted in between.
    """

    @staticmethod
    def make_policy(deployment):
        policy = deployment.make_policy()
        policy.volumes.append(VolumeSpec(name="data", path="/data"))
        return policy

    @staticmethod
    def keys(service, name="ml_policy"):
        return (service.store.get("secrets", name)["API_KEY"].value,
                service.store.get("fs_keys", name)["ml_app"],
                service.store.get("volume_keys", name)["data"])

    @staticmethod
    def other_owner(deployment):
        from repro.core.client import PalaemonClient

        other = PalaemonClient("other-owner",
                               DeterministicRandom(b"other-owner"))
        other.attest_instance_via_ca(deployment.palaemon,
                                     deployment.ca.root_public_key,
                                     now=deployment.simulator.now)
        return other

    def test_recreated_by_another_owner_gets_fresh_keys(self, deployment):
        deployment.client.create_policy(deployment.palaemon,
                                        self.make_policy(deployment))
        first = self.keys(deployment.palaemon)
        deployment.client.invoke(deployment.palaemon, "policy.delete",
                                 name="ml_policy")
        self.other_owner(deployment).create_policy(
            deployment.palaemon, self.make_policy(deployment))
        second = self.keys(deployment.palaemon)
        assert all(old != new for old, new in zip(first, second))

    def test_recreated_after_clean_restart_gets_fresh_keys(self):
        deployment = Deployment(seed=b"recreate-restart")
        deployment.client.create_policy(deployment.palaemon,
                                        self.make_policy(deployment))
        first = self.keys(deployment.palaemon)
        deployment.client.invoke(deployment.palaemon, "policy.delete",
                                 name="ml_policy")
        deployment.stop_palaemon()
        # The same binary with the same randomness source restarts.
        restarted = PalaemonService(
            deployment.platform, deployment.volume,
            deployment.rng.fork(b"palaemon"),
            board_evaluator=deployment.evaluator)
        deployment.simulator.run_process(restarted.start())
        restarted.obtain_certificate(deployment.ca)
        deployment.client.create_policy(restarted,
                                        self.make_policy(deployment))
        second = self.keys(restarted)
        assert all(old != new for old, new in zip(first, second))

    def test_secret_removed_and_readded_gets_fresh_value(self, deployment):
        policy = self.make_policy(deployment)
        deployment.client.create_policy(deployment.palaemon, policy)
        first = self.keys(deployment.palaemon)[0]
        api_key = policy.secrets.pop()
        deployment.client.update_policy(deployment.palaemon, policy)
        assert "API_KEY" not in deployment.palaemon.store.get(
            "secrets", "ml_policy")
        policy.secrets.append(api_key)
        deployment.client.update_policy(deployment.palaemon, policy)
        assert self.keys(deployment.palaemon)[0] != first

    def test_secrets_added_by_separate_updates_differ(self, deployment):
        policy = deployment.make_policy()
        deployment.client.create_policy(deployment.palaemon, policy)
        for name in ("EXTRA_1", "EXTRA_2"):
            policy.secrets.append(SecretSpec(name=name,
                                             kind=SecretKind.RANDOM))
            deployment.client.update_policy(deployment.palaemon, policy)
        secrets = deployment.palaemon.store.get("secrets", "ml_policy")
        assert secrets["EXTRA_1"].value != secrets["EXTRA_2"].value
